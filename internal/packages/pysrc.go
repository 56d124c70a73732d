// Package packages contains the evaluation targets of §6.1: functional
// analogues of the six Python and five Lua library packages the paper tests,
// written in MiniPy and MiniLua, plus the MAC-learning OpenFlow controller
// used for the NICE comparison (§6.6). Each target mirrors the original's
// shape — parsers, CLI front ends, markup converters, a binary spreadsheet
// reader, a mini compiler — and the sb-JSON package carries the paper's real
// bug: an unterminated comment hangs the parser.
package packages

// ArgparseSrc is the MiniPy analogue of the argparse command-line interface
// generator. Documented exception: ArgumentError.
const ArgparseSrc = `
class ArgumentParser:
    def __init__(self):
        self.optnames = []
        self.positionals = []

    def has_option(self, key):
        for o in self.optnames:
            if o == key:
                return True
        return False

    def add_argument(self, name):
        if len(name) == 0:
            raise ArgumentError("empty argument name")
        if name.startswith("--"):
            optname = name[2:]
            if len(optname) == 0:
                raise ArgumentError("bad long option name")
            self.optnames.append(optname)
        elif name.startswith("-"):
            optname = name[1:]
            if len(optname) == 0:
                raise ArgumentError("bad short option name")
            self.optnames.append(optname)
        else:
            for p in self.positionals:
                if p == name:
                    raise ArgumentError("conflicting positional name")
            self.positionals.append(name)

    def parse_args(self, argv):
        result = {}
        pos_index = 0
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg.startswith("--"):
                body = arg[2:]
                eq = body.find("=")
                if eq >= 0:
                    key = body[:eq]
                    value = body[eq + 1:]
                else:
                    key = body
                    value = None
                if not self.has_option(key):
                    raise ArgumentError("unrecognized option")
                if value == None:
                    if i + 1 < len(argv):
                        value = argv[i + 1]
                        i += 1
                    else:
                        raise ArgumentError("expected one argument")
                if key.startswith("n"):
                    result[key] = int(value)
                else:
                    result[key] = value
            elif arg.startswith("-") and len(arg) > 1:
                key = arg[1:2]
                if not self.has_option(key):
                    raise ArgumentError("unrecognized short option")
                if len(arg) > 2:
                    result[key] = arg[2:]
                elif i + 1 < len(argv):
                    result[key] = argv[i + 1]
                    i += 1
                else:
                    raise ArgumentError("expected one argument")
            else:
                if pos_index >= len(self.positionals):
                    raise ArgumentError("unrecognized positional argument")
                result[self.positionals[pos_index]] = arg
                pos_index += 1
            i += 1
        while pos_index < len(self.positionals):
            result[self.positionals[pos_index]] = ""
            pos_index += 1
        return result


def rstrip_nul(s):
    end = len(s)
    while end > 0 and s[end - 1] == "\x00":
        end -= 1
    return s[:end]

def drive(arg1_name, arg2_name, arg1, arg2):
    parser = ArgumentParser()
    parser.add_argument(rstrip_nul(arg1_name))
    parser.add_argument(rstrip_nul(arg2_name))
    args = parser.parse_args([rstrip_nul(arg1), rstrip_nul(arg2)])
    total = 0
    for k in args.keys():
        # options starting with "n" were converted with int(); summing their
        # lengths raises TypeError, escaping the API like the int-conversion
        # ValueError does
        total += len(args[k])
    return total
`

// ConfigParserSrc is the MiniPy analogue of ConfigParser (INI files).
// Documented exception: ConfigError.
const ConfigParserSrc = `
class ConfigParser:
    def __init__(self):
        self.sections = {}

    def read_string(self, text):
        current = None
        for raw in text.split("\n"):
            line = raw.strip()
            if len(line) == 0:
                continue
            if line.startswith("#") or line.startswith(";"):
                continue
            if line.startswith("["):
                end = line.find("]")
                if end < 0:
                    raise ConfigError("unterminated section header")
                name = line[1:end]
                if len(name) == 0:
                    raise ConfigError("empty section name")
                if name not in self.sections:
                    self.sections[name] = {}
                current = name
            else:
                eq = line.find("=")
                if eq < 0:
                    eq = line.find(":")
                if eq < 0:
                    raise ConfigError("line is not a key-value pair")
                if current == None:
                    raise ConfigError("option outside any section")
                key = line[:eq].strip()
                value = line[eq + 1:].strip()
                if len(key) == 0:
                    raise ConfigError("empty option name")
                self.sections[current][key] = value

    def get(self, section, option):
        if section not in self.sections:
            raise ConfigError("no such section")
        sec = self.sections[section]
        if option not in sec:
            raise ConfigError("no such option")
        return sec[option]

    def section_names(self):
        return self.sections.keys()


def rstrip_nul(s):
    end = len(s)
    while end > 0 and s[end - 1] == "\x00":
        end -= 1
    return s[:end]

def drive(text):
    p = ConfigParser()
    p.read_string(rstrip_nul(text))
    total = 0
    for name in p.section_names():
        total += len(p.sections[name].keys())
    return total
`

// HTMLParserSrc is the MiniPy analogue of HTMLParser.
// Documented exception: ParseError.
const HTMLParserSrc = `
class HTMLParser:
    def __init__(self):
        self.tags = []
        self.texts = []
        self.stack = []

    def feed(self, data):
        i = 0
        n = len(data)
        while i < n:
            lt = data.find("<", i)
            if lt < 0:
                if i < n:
                    self.texts.append(data[i:])
                return
            if lt > i:
                self.texts.append(data[i:lt])
            gt = data.find(">", lt)
            if gt < 0:
                raise ParseError("EOF in middle of tag")
            inner = data[lt + 1:gt]
            if len(inner) == 0:
                raise ParseError("malformed empty tag")
            if inner.startswith("/"):
                name = inner[1:].strip()
                if len(self.stack) == 0:
                    raise ParseError("unbalanced end tag")
                opened = self.stack.pop()
                if opened != name:
                    raise ParseError("mismatched end tag")
                self.tags.append("/" + name)
            elif inner.startswith("!"):
                self.tags.append("!")
            else:
                sp = inner.find(" ")
                if sp >= 0:
                    name = inner[:sp]
                else:
                    name = inner
                if len(name) == 0:
                    raise ParseError("tag with empty name")
                if not name.isalpha():
                    raise ParseError("invalid tag name")
                self.tags.append(name)
                self.stack.append(name)
            i = gt + 1

    def close(self):
        if len(self.stack) > 0:
            raise ParseError("unclosed tags at EOF")


def rstrip_nul(s):
    end = len(s)
    while end > 0 and s[end - 1] == "\x00":
        end -= 1
    return s[:end]

def drive(data):
    p = HTMLParser()
    p.feed(rstrip_nul(data))
    p.close()
    return len(p.tags)
`

// SimpleJSONSrc is the MiniPy analogue of simplejson's decoder.
// Documented exception: ValueError (JSONDecodeError's base).
const SimpleJSONSrc = `
class Decoder:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, why):
        raise ValueError(why)

    def peek(self):
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def decode_value(self):
        self.skip_ws()
        c = self.peek()
        if c == "":
            self.error("expecting value")
        if c == "{":
            return self.decode_object()
        if c == "[":
            return self.decode_array()
        if c == "\x22":
            return self.decode_string()
        if c == "t":
            self.expect_word("true")
            return True
        if c == "f":
            self.expect_word("false")
            return False
        if c == "n":
            self.expect_word("null")
            return None
        if c == "-" or c.isdigit():
            return self.decode_number()
        self.error("unexpected character")

    def expect_word(self, word):
        if self.pos + len(word) > len(self.text):
            self.error("truncated literal")
        got = self.text[self.pos:self.pos + len(word)]
        if got != word:
            self.error("invalid literal")
        self.pos += len(word)

    def decode_string(self):
        self.pos += 1
        out = ""
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated string")
            c = self.text[self.pos]
            if c == "\x22":
                self.pos += 1
                return out
            if c == "\x5c":
                self.pos += 1
                if self.pos >= len(self.text):
                    self.error("truncated escape")
                e = self.text[self.pos]
                if e == "n":
                    out += "\n"
                elif e == "t":
                    out += "\t"
                else:
                    out += e
            else:
                out += c
            self.pos += 1

    def decode_number(self):
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        ndigits = 0
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
            ndigits += 1
        if ndigits == 0:
            self.error("bad number")
        return int(self.text[start:self.pos])

    def decode_object(self):
        obj = {}
        self.pos += 1
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return obj
        while True:
            self.skip_ws()
            if self.peek() != "\x22":
                self.error("expecting property name")
            key = self.decode_string()
            self.skip_ws()
            if self.peek() != ":":
                self.error("expecting colon")
            self.pos += 1
            obj[key] = self.decode_value()
            self.skip_ws()
            c = self.peek()
            if c == ",":
                self.pos += 1
            elif c == "}":
                self.pos += 1
                return obj
            else:
                self.error("expecting comma or brace")

    def decode_array(self):
        arr = []
        self.pos += 1
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return arr
        while True:
            arr.append(self.decode_value())
            self.skip_ws()
            c = self.peek()
            if c == ",":
                self.pos += 1
            elif c == "]":
                self.pos += 1
                return arr
            else:
                self.error("expecting comma or bracket")

def loads(text):
    d = Decoder(text)
    value = d.decode_value()
    d.skip_ws()
    if d.pos < len(d.text):
        d.error("extra data")
    return value


def rstrip_nul(s):
    end = len(s)
    while end > 0 and s[end - 1] == "\x00":
        end -= 1
    return s[:end]

def drive(text):
    v = loads(rstrip_nul(text))
    return 1
`

// UnicodeCSVSrc is the MiniPy analogue of unicodecsv's reader.
// Documented exception: CSVError.
const UnicodeCSVSrc = `
def parse_line(line):
    fields = []
    cur = ""
    i = 0
    n = len(line)
    in_quotes = False
    while i < n:
        c = line[i]
        if in_quotes:
            if c == "\x22":
                if i + 1 < n and line[i + 1] == "\x22":
                    cur += "\x22"
                    i += 1
                else:
                    in_quotes = False
            else:
                cur += c
        else:
            if c == "\x22":
                if len(cur) > 0:
                    raise CSVError("quote in unquoted field")
                in_quotes = True
            elif c == ",":
                fields.append(cur)
                cur = ""
            else:
                cur += c
        i += 1
    if in_quotes:
        raise CSVError("unterminated quoted field")
    fields.append(cur)
    return fields


def rstrip_nul(s):
    end = len(s)
    while end > 0 and s[end - 1] == "\x00":
        end -= 1
    return s[:end]

def drive(line):
    fields = parse_line(rstrip_nul(line))
    return len(fields)
`

// XlrdSrc is the MiniPy analogue of xlrd, a reader for a binary spreadsheet
// container. Documented exception: XLRDError. Its inner components raise
// BadZipfile, IndexError, error and AssertionError — the four undocumented
// exception types the paper reports escaping the xlrd API (§6.2).
const XlrdSrc = `
REC_BOF = 9
REC_SST = 12
REC_ROW = 8
REC_EOF = 10

class Workbook:
    def __init__(self):
        self.nrows = 0
        self.strings = []
        self.cells = {}

def check_container(data):
    # The container layer insists on a zip-like magic and raises its own
    # exception type, which xlrd does not document.
    if len(data) < 2:
        raise BadZipfile("truncated container")
    if data[0] != "P":
        raise XLRDError("unsupported format")
    if data[1] != "K":
        raise BadZipfile("bad container magic")

def read_u8(data, pos):
    # Record readers index raw bytes; short records escape as IndexError.
    return ord(data[pos])

def read_record(data, pos):
    rectype = read_u8(data, pos)
    reclen = read_u8(data, pos + 1)
    body = data[pos + 2:pos + 2 + reclen]
    if len(body) != reclen:
        raise error("record payload truncated")
    return [rectype, body, pos + 2 + reclen]

def handle_sst(book, body):
    count = len(body)
    i = 0
    while i < count:
        slen = ord(body[i])
        if slen > count - i - 1:
            raise error("string overflows SST record")
        book.strings.append(body[i + 1:i + 1 + slen])
        i += 1 + slen

def handle_row(book, body):
    if len(body) < 2:
        raise IndexError("row record too short")
    rownum = ord(body[0])
    ncells = ord(body[1])
    if ncells > len(body) - 2:
        raise error("cell count overflows record")
    if rownum < book.nrows:
        raise AssertionError("rows out of order")
    book.nrows = rownum + 1
    j = 0
    while j < ncells:
        book.cells[rownum * 256 + j] = ord(body[2 + j])
        j += 1

def open_workbook(data):
    check_container(data)
    book = Workbook()
    pos = 2
    seen_bof = False
    while pos < len(data):
        rec = read_record(data, pos)
        rectype = rec[0]
        body = rec[1]
        pos = rec[2]
        if rectype == REC_BOF:
            seen_bof = True
        elif rectype == REC_SST:
            if not seen_bof:
                raise XLRDError("SST before BOF")
            handle_sst(book, body)
        elif rectype == REC_ROW:
            if not seen_bof:
                raise XLRDError("ROW before BOF")
            handle_row(book, body)
        elif rectype == REC_EOF:
            return book
        elif rectype == 0:
            # zero padding after the last record ends the stream
            return book
        else:
            raise XLRDError("unknown record type")
    raise XLRDError("missing EOF record")

def drive(data):
    book = open_workbook(data)
    return book.nrows + len(book.strings)
`

package main

import (
	"testing"

	"chef/internal/packages"
	"chef/internal/symtest"
)

func TestRenderInput(t *testing.T) {
	p, _ := packages.ByName("unicodecsv")
	tc := symtest.SerializedTest{
		Package: "unicodecsv",
		Input:   map[string]uint64{"line[0]:8": 'a', "line[1]:8": ',', "line[2]:8": 'b'},
	}
	got := renderInput(p, tc)
	if got != `line="a,b\x00\x00\x00"` {
		t.Errorf("renderInput = %q", got)
	}
	if renderInput(p, symtest.SerializedTest{Input: map[string]uint64{"bad": 1}}) != "?" {
		t.Error("bad input should render as ?")
	}
}

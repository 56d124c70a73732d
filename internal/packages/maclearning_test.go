package packages

import (
	"fmt"
	"strings"

	"chef/internal/interp"
	"chef/internal/symtest"
)

// MacLearningSrc is the MAC-learning OpenFlow controller of §6.6: the
// forwarding table is a dict keyed by MAC address, fed symbolic Ethernet
// frames. drive<N> entry points accept N (src, dst) frame pairs.
const MacLearningSrc = `
class Switch:
    def __init__(self):
        self.table = {}

    def process(self, src, dst, in_port):
        self.table[src] = in_port
        if dst in self.table:
            return self.table[dst]
        return -1

def drive(frames):
    sw = Switch()
    outs = []
    i = 0
    while i < len(frames):
        outs.append(sw.process(frames[i], frames[i + 1], i))
        i += 2
    return outs
`

// MacLearningTest builds the §6.6 NICE-comparison workload: a MiniPy
// MAC-learning controller fed nFrames symbolic Ethernet frames (each frame
// contributes a src and dst MAC of macLen symbolic bytes).
func MacLearningTest(nFrames, macLen int, cfg interp.Config) *symtest.PyTest {
	var sb strings.Builder
	sb.WriteString(MacLearningSrc)
	sb.WriteString("\ndef drive_frames(")
	var params []string
	for i := 0; i < nFrames; i++ {
		params = append(params, fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i))
	}
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("):\n    frames = [")
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("]\n    return drive(frames)\n")
	var inputs []symtest.Input
	for i := 0; i < nFrames; i++ {
		inputs = append(inputs,
			symtest.Str(fmt.Sprintf("s%d", i), macLen, ""),
			symtest.Str(fmt.Sprintf("d%d", i), macLen, ""))
	}
	return &symtest.PyTest{Source: sb.String(), Entry: "drive_frames", Inputs: inputs, Config: cfg}
}

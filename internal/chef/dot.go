package chef

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the dynamically discovered high-level CFG in Graphviz format,
// marking the potential branching points (the frontier the
// coverage-optimized CUPA steers toward) with doubled borders. Useful for
// inspecting what the engine has learned about a target program.
func (g *CFG) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", name)
	frontier := map[HLPC]bool{}
	for _, pc := range g.PotentialBranchPoints() {
		frontier[pc] = true
	}
	var locs []*cfgNode
	for i := range g.nodes {
		if g.nodes[i].hasOp {
			locs = append(locs, &g.nodes[i])
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].pc < locs[j].pc })
	for _, n := range locs {
		attrs := fmt.Sprintf("label=\"%d:%d\\nop=%d\"", n.pc>>16, n.pc&0xffff, n.opcode)
		if frontier[n.pc] {
			attrs += ", peripheries=2, color=red"
		}
		fmt.Fprintf(&sb, "  n%d [%s];\n", n.pc, attrs)
	}
	for _, n := range locs {
		tos := make([]HLPC, 0, len(n.succs))
		for _, to := range n.succs {
			tos = append(tos, g.nodes[to].pc)
		}
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.pc, to)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

package chef

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chef/internal/lowlevel"
	"chef/internal/obs"
)

// refCFG is the CFG's reference: the map-of-maps implementation the session
// used before the graph moved to dense indices, kept verbatim but for its
// name. Results must not depend on the representation.
type refCFG struct {
	succs    map[HLPC]map[HLPC]bool
	preds    map[HLPC]map[HLPC]bool
	opcodeOf map[HLPC]uint32

	dirty bool
	dist  map[HLPC]int
}

func newRefCFG() *refCFG {
	return &refCFG{
		succs:    map[HLPC]map[HLPC]bool{},
		preds:    map[HLPC]map[HLPC]bool{},
		opcodeOf: map[HLPC]uint32{},
	}
}

func (g *refCFG) AddEdge(from, to HLPC) bool {
	m := g.succs[from]
	if m == nil {
		m = map[HLPC]bool{}
		g.succs[from] = m
	}
	if !m[to] {
		m[to] = true
		p := g.preds[to]
		if p == nil {
			p = map[HLPC]bool{}
			g.preds[to] = p
		}
		p[from] = true
		g.dirty = true
		return true
	}
	return false
}

func (g *refCFG) SetOpcode(pc HLPC, opcode uint32) {
	if old, ok := g.opcodeOf[pc]; !ok || old != opcode {
		g.opcodeOf[pc] = opcode
		g.dirty = true
	}
}

func (g *refCFG) Nodes() int { return len(g.opcodeOf) }

func (g *refCFG) Edges() int {
	n := 0
	for _, m := range g.succs {
		n += len(m)
	}
	return n
}

func (g *refCFG) BranchingOpcodes() map[uint32]bool {
	freq := map[uint32]int{}
	for pc, m := range g.succs {
		if len(m) >= 2 {
			freq[g.opcodeOf[pc]]++
		}
	}
	if len(freq) == 0 {
		return map[uint32]bool{}
	}
	type of struct {
		op uint32
		n  int
	}
	all := make([]of, 0, len(freq))
	for op, n := range freq {
		all = append(all, of{op, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return all[i].op < all[j].op
	})
	drop := len(all) / 10
	out := map[uint32]bool{}
	for _, e := range all[drop:] {
		out[e.op] = true
	}
	return out
}

func (g *refCFG) PotentialBranchPoints() []HLPC {
	branching := g.BranchingOpcodes()
	var out []HLPC
	for pc, op := range g.opcodeOf {
		if branching[op] && len(g.succs[pc]) == 1 {
			out = append(out, pc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *refCFG) Distance(pc HLPC) int {
	if g.dirty || g.dist == nil {
		g.recompute()
	}
	if d, ok := g.dist[pc]; ok {
		return d
	}
	return unknownDistance
}

func (g *refCFG) recompute() {
	g.dirty = false
	g.dist = map[HLPC]int{}
	frontier := g.PotentialBranchPoints()
	queue := make([]HLPC, 0, len(frontier))
	for _, pc := range frontier {
		g.dist[pc] = 0
		queue = append(queue, pc)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := g.dist[cur]
		for pred := range g.preds[cur] {
			if _, ok := g.dist[pred]; !ok {
				g.dist[pred] = d + 1
				queue = append(queue, pred)
			}
		}
	}
}

func (g *refCFG) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", name)
	frontier := map[HLPC]bool{}
	for _, pc := range g.PotentialBranchPoints() {
		frontier[pc] = true
	}
	pcs := make([]HLPC, 0, len(g.opcodeOf))
	for pc := range g.opcodeOf {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		attrs := fmt.Sprintf("label=\"%d:%d\\nop=%d\"", pc>>16, pc&0xffff, g.opcodeOf[pc])
		if frontier[pc] {
			attrs += ", peripheries=2, color=red"
		}
		fmt.Fprintf(&sb, "  n%d [%s];\n", pc, attrs)
	}
	for _, from := range pcs {
		tos := make([]HLPC, 0, len(g.succs[from]))
		for to := range g.succs[from] {
			tos = append(tos, to)
		}
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", from, to)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// refTree is the execution tree's reference: nodes interned by a
// (parent, hlpc) map, with IDs handed out in discovery order, plus the
// log_pc bookkeeping of one run.
type refTree struct {
	nodes  map[[2]uint64]uint64
	nextHL uint64
	cfg    *refCFG
	edges  []obs.Event
}

type refRun struct {
	t        *refTree
	dyn      uint64
	prevHLPC HLPC
	started  bool
	steps    int64
}

func (r *refRun) LogPC(pc HLPC, opcode uint32) {
	r.steps++
	e := [2]uint64{r.dyn, pc}
	id, ok := r.t.nodes[e]
	if !ok {
		r.t.nextHL++
		id = r.t.nextHL
		r.t.nodes[e] = id
	}
	r.dyn = id
	if r.started && r.t.cfg.AddEdge(r.prevHLPC, pc) {
		r.t.edges = append(r.t.edges, obs.Event{T: r.steps, Kind: obs.KindHLEdge, From: r.prevHLPC, HLPC: pc, Opcode: opcode})
	}
	r.t.cfg.SetOpcode(pc, opcode)
	r.prevHLPC = pc
	r.started = true
}

// hlStep is one guest call of a run: log_pc(pc, opcode), or start_symbolic.
type hlStep struct {
	start  bool
	pc     HLPC
	opcode uint32
}

type edgeRecorder struct{ events []obs.Event }

func (r *edgeRecorder) Emit(ev obs.Event) {
	if ev.Kind == obs.KindHLEdge {
		r.events = append(r.events, ev)
	}
}

// checkHLTreeMatchesRef drives runs through a session and the reference and
// fails on the first difference in dynamic HLPCs, CFG queries, DOT output
// or the hlpc-edge event stream.
func checkHLTreeMatchesRef(t *testing.T, runs [][]hlStep) {
	t.Helper()
	rec := &edgeRecorder{}
	s := NewSession(nil, Options{Tracer: rec})
	ref := &refTree{nodes: map[[2]uint64]uint64{}, cfg: newRefCFG()}
	pcs := map[HLPC]bool{1 << 40: true} // an HLPC never logged
	for ri, run := range runs {
		ctx := &Ctx{M: lowlevel.NewConcreteMachine(nil, 1<<40), s: s}
		rr := &refRun{t: ref}
		for si, st := range run {
			if st.start {
				ctx.StartSymbolic()
				rr.started = false
				continue
			}
			pcs[st.pc] = true
			ctx.LogPC(st.pc, st.opcode)
			rr.LogPC(st.pc, st.opcode)
			if ctx.M.DynHLPC != rr.dyn {
				t.Fatalf("run %d step %d: DynHLPC %d, reference %d", ri, si, ctx.M.DynHLPC, rr.dyn)
			}
		}
		g := s.CFG()
		if g.Nodes() != ref.cfg.Nodes() || g.Edges() != ref.cfg.Edges() {
			t.Fatalf("run %d: cfg %d nodes/%d edges, reference %d/%d", ri, g.Nodes(), g.Edges(), ref.cfg.Nodes(), ref.cfg.Edges())
		}
		if ri%3 == 0 { // interleave lazy distance recomputation with growth
			for pc := range pcs {
				if d, want := g.Distance(pc), ref.cfg.Distance(pc); d != want {
					t.Fatalf("run %d: Distance(%d) = %d, reference %d", ri, pc, d, want)
				}
			}
		}
	}
	g := s.CFG()
	if got, want := g.BranchingOpcodes(), ref.cfg.BranchingOpcodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BranchingOpcodes %v, reference %v", got, want)
	}
	if got, want := g.PotentialBranchPoints(), ref.cfg.PotentialBranchPoints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PotentialBranchPoints %v, reference %v", got, want)
	}
	for pc := range pcs {
		if d, want := g.Distance(pc), ref.cfg.Distance(pc); d != want {
			t.Fatalf("Distance(%d) = %d, reference %d", pc, d, want)
		}
	}
	if got, want := g.DOT("g"), ref.cfg.DOT("g"); got != want {
		t.Fatalf("DOT differs:\n%s\nreference:\n%s", got, want)
	}
	if uint64(s.tree.len()-1) != ref.nextHL {
		t.Fatalf("tree has %d nodes, reference %d", s.tree.len()-1, ref.nextHL)
	}
	if !reflect.DeepEqual(rec.events, ref.edges) {
		t.Fatalf("hlpc-edge events differ:\n%+v\nreference:\n%+v", rec.events, ref.edges)
	}
}

// randomHLRuns builds runs that re-execute prefixes of earlier runs (as
// DART-style re-execution does) and then diverge, over a small pool of
// HLPCs whose opcode occasionally changes.
func randomHLRuns(rng *rand.Rand) [][]hlStep {
	pool := make([]HLPC, 3+rng.Intn(10))
	for i := range pool {
		pool[i] = HLPC(rng.Intn(4))<<16 | HLPC(rng.Intn(8))
	}
	var runs [][]hlStep
	for r := 0; r < 1+rng.Intn(40); r++ {
		var run []hlStep
		if len(runs) > 0 && rng.Intn(4) != 0 {
			prev := runs[rng.Intn(len(runs))]
			run = append(run, prev[:rng.Intn(len(prev)+1)]...)
		}
		for n := rng.Intn(30); n > 0; n-- {
			if rng.Intn(20) == 0 {
				run = append(run, hlStep{start: true})
				continue
			}
			pc := pool[rng.Intn(len(pool))]
			op := uint32(pc % 5)
			if rng.Intn(15) == 0 {
				op = uint32(rng.Intn(5))
			}
			run = append(run, hlStep{pc: pc, opcode: op})
		}
		runs = append(runs, run)
	}
	return runs
}

func TestHLTreeMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runs := randomHLRuns(rand.New(rand.NewSource(seed)))
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkHLTreeMatchesRef(t, runs) })
	}
}

// FuzzHLTree decodes bytes into runs: 0xff starts a new run, 0xf0–0xfe a new
// run that first replays a prefix of the previous one, 0xe0–0xef is
// start_symbolic, and any other byte logs one of eight HLPCs with one of
// four opcodes.
func FuzzHLTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0xff, 0, 1, 3})
	f.Add([]byte{0, 9, 18, 0xf3, 4, 0xe0, 5, 0xf2, 13, 0xff, 8, 1})
	f.Add([]byte{7, 7, 7, 15, 23, 31, 0xf1, 6, 0xf4, 0xe5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := [][]hlStep{nil}
		for _, b := range data {
			cur := len(runs) - 1
			switch {
			case b == 0xff:
				runs = append(runs, nil)
			case b >= 0xf0:
				prev := runs[cur]
				n := min(int(b-0xf0), len(prev))
				runs = append(runs, append([]hlStep(nil), prev[:n]...))
			case b >= 0xe0:
				runs[cur] = append(runs[cur], hlStep{start: true})
			default:
				runs[cur] = append(runs[cur], hlStep{pc: HLPC(b%8) << 16, opcode: uint32(b/8) % 4})
			}
		}
		checkHLTreeMatchesRef(t, runs)
	})
}

// Package cupa implements Class-Uniform Path Analysis (§3.2 of the paper),
// the state-selection heuristic that makes interpreter-level symbolic
// execution productive.
//
// CUPA organizes the queue of pending low-level states into a hierarchy of
// partitions. Each level of the hierarchy classifies states by a key; state
// selection descends the tree by picking a class at each level (uniformly by
// default, or biased by per-class weights) and finally picks a state inside
// the reached leaf. Classes that fork many states — string routines, native
// calls, hash functions — therefore no longer dominate selection.
package cupa

import (
	"fmt"
	"math/rand"

	"chef/internal/lowlevel"
	"chef/internal/obs"
)

// Level describes one classification level of the CUPA tree.
type Level struct {
	// Key maps a state to its class at this level.
	Key func(*lowlevel.State) uint64
	// Weight, when non-nil, returns the selection weight of a class.
	// It is consulted at selection time, so weights may evolve as the
	// high-level CFG is discovered. Non-positive weights are treated as a
	// tiny epsilon so no class starves completely.
	Weight func(classKey uint64) float64
}

// Strategy is a CUPA state-selection strategy; it implements
// lowlevel.Strategy.
type Strategy struct {
	levels []Level
	// stateWeight, when non-nil, weights states inside a leaf (used by the
	// coverage-optimized instantiation for fork weights).
	stateWeight func(*lowlevel.State) float64
	rng         *rand.Rand
	root        *node
	count       int

	// Observability (nil when disabled; selection decisions are unaffected).
	tracer    obs.Tracer
	mSelects  *obs.Counter
	mByClass  *obs.CounterVec
	virtClock func() int64
}

type node struct {
	children map[uint64]*node
	order    []uint64 // insertion order of child keys, for determinism
	states   []*lowlevel.State
}

func newNode() *node { return &node{children: map[uint64]*node{}} }

// New builds a CUPA strategy with the given levels. stateWeight may be nil
// for uniform leaf selection.
//
// New panics when rng is nil, levels is empty, or any level has a nil Key.
// Each of those would otherwise surface only deep into exploration — a nil
// dereference at the first multi-state Select or Add, or a silently
// degenerate flat queue — far from the constructor that caused it, so the
// misuse is rejected where it happens.
func New(rng *rand.Rand, levels []Level, stateWeight func(*lowlevel.State) float64) *Strategy {
	if rng == nil {
		panic("cupa: New requires a non-nil rng")
	}
	if len(levels) == 0 {
		panic("cupa: New requires at least one level")
	}
	for i, lvl := range levels {
		if lvl.Key == nil {
			panic(fmt.Sprintf("cupa: New level %d has a nil Key", i))
		}
	}
	return &Strategy{levels: levels, stateWeight: stateWeight, rng: rng, root: newNode()}
}

// Instrument attaches observability sinks: reg receives the selection counter
// and per-top-level-class pick counts, tr receives one cupa-pick event per
// selection. clock, when non-nil, timestamps events with the session's
// virtual time. Observation-only — selection behavior is unchanged.
func (c *Strategy) Instrument(reg *obs.Registry, tr obs.Tracer, clock func() int64) {
	if reg != nil {
		c.mSelects = reg.Counter(obs.MCupaSelections)
		c.mByClass = reg.CounterVec(obs.MCupaPicksByClass)
	}
	c.tracer = tr
	c.virtClock = clock
}

// Add implements lowlevel.Strategy.
func (c *Strategy) Add(s *lowlevel.State) {
	n := c.root
	for _, lvl := range c.levels {
		k := lvl.Key(s)
		child := n.children[k]
		if child == nil {
			child = newNode()
			n.children[k] = child
			n.order = append(n.order, k)
		}
		n = child
	}
	n.states = append(n.states, s)
	c.count++
}

// Len implements lowlevel.Strategy.
func (c *Strategy) Len() int { return c.count }

const epsilonWeight = 1e-9

// Select implements lowlevel.Strategy: a weighted random descent of the
// classification tree followed by a weighted pick inside the leaf.
func (c *Strategy) Select() *lowlevel.State {
	if c.count == 0 {
		return nil
	}
	n := c.root
	path := []*node{n}
	keys := make([]uint64, 0, len(c.levels))
	for _, lvl := range c.levels {
		k := c.pickClass(n, lvl)
		n = n.children[k]
		path = append(path, n)
		keys = append(keys, k)
	}
	s := c.pickState(n)
	c.count--
	if c.mSelects != nil {
		c.mSelects.Inc()
		if len(keys) > 0 {
			c.mByClass.At(keys[0]).Inc()
		}
	}
	if c.tracer != nil {
		var t int64
		if c.virtClock != nil {
			t = c.virtClock()
		}
		var class uint64
		if len(keys) > 0 {
			class = keys[0]
		}
		c.tracer.Emit(obs.Event{
			T:       t,
			Kind:    obs.KindCUPAPick,
			Class:   class,
			LLPC:    uint64(s.LLPC),
			HLPC:    s.StaticHLPC,
			DynHLPC: s.DynHLPC,
			Depth:   s.Depth,
		})
	}
	// Prune empty nodes bottom-up.
	for i := len(path) - 1; i > 0; i-- {
		nd := path[i]
		if len(nd.states) == 0 && len(nd.children) == 0 {
			parent := path[i-1]
			delete(parent.children, keys[i-1])
			parent.order = removeKey(parent.order, keys[i-1])
		}
	}
	return s
}

func removeKey(order []uint64, k uint64) []uint64 {
	for i, v := range order {
		if v == k {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

func (c *Strategy) pickClass(n *node, lvl Level) uint64 {
	if len(n.order) == 1 {
		return n.order[0]
	}
	if lvl.Weight == nil {
		return n.order[c.rng.Intn(len(n.order))]
	}
	total := 0.0
	weights := make([]float64, len(n.order))
	for i, k := range n.order {
		w := lvl.Weight(k)
		if w <= 0 {
			w = epsilonWeight
		}
		weights[i] = w
		total += w
	}
	x := c.rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return n.order[i]
		}
	}
	return n.order[len(n.order)-1]
}

func (c *Strategy) pickState(n *node) *lowlevel.State {
	states := n.states
	var idx int
	if c.stateWeight == nil || len(states) == 1 {
		idx = c.rng.Intn(len(states))
	} else {
		total := 0.0
		weights := make([]float64, len(states))
		for i, s := range states {
			w := c.stateWeight(s)
			if w <= 0 {
				w = epsilonWeight
			}
			weights[i] = w
			total += w
		}
		x := c.rng.Float64() * total
		idx = len(states) - 1
		for i, w := range weights {
			x -= w
			if x < 0 {
				idx = i
				break
			}
		}
	}
	s := states[idx]
	states[idx] = states[len(states)-1]
	n.states = states[:len(states)-1]
	return s
}

// NewPathOptimized builds the path-optimized CUPA instantiation of §3.3:
// level 1 classifies by dynamic HLPC (the state's location in the unfolded
// high-level execution tree), level 2 by low-level program counter. Both
// levels select uniformly among classes.
func NewPathOptimized(rng *rand.Rand) *Strategy {
	return New(rng, []Level{
		{Key: func(s *lowlevel.State) uint64 { return s.DynHLPC }},
		{Key: func(s *lowlevel.State) uint64 { return uint64(s.LLPC) }},
	}, nil)
}

// DistanceFunc reports the current distance (in high-level CFG edges) from a
// static HLPC to the nearest potential branching point, as maintained by the
// CHEF layer. Unknown locations should return a large distance.
type DistanceFunc func(staticHLPC uint64) int

// NewCoverageOptimized builds the coverage-optimized CUPA instantiation of
// §3.4: level 1 classifies by static HLPC weighted by 1/d where d is the
// distance to the nearest potential branching point; inside a class, states
// are weighted by their fork weight.
func NewCoverageOptimized(rng *rand.Rand, dist DistanceFunc) *Strategy {
	return New(rng, []Level{
		{
			Key: func(s *lowlevel.State) uint64 { return s.StaticHLPC },
			Weight: func(class uint64) float64 {
				d := dist(class)
				if d < 0 {
					d = 0
				}
				return 1.0 / (1.0 + float64(d))
			},
		},
	}, func(s *lowlevel.State) float64 { return s.ForkWeight })
}

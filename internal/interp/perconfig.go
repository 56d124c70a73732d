package interp

import (
	"slices"
	"sync"
	"sync/atomic"
)

// PerConfig holds one value per Config, each built on its first Get. Gets of
// a built value take no lock, so the hot path of every guest run can use it;
// builds are serialized. The zero value is empty and ready to use; a
// PerConfig must not be copied.
type PerConfig[T any] struct {
	mu  sync.Mutex
	all atomic.Pointer[[]perConfigEntry[T]] // append-only, replaced on each build
}

type perConfigEntry[T any] struct {
	cfg Config
	v   T
}

// Get returns the value for cfg, calling build(cfg) if there is none yet.
func (p *PerConfig[T]) Get(cfg Config, build func(Config) T) T {
	if v, ok := p.lookup(cfg); ok {
		return v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.lookup(cfg); ok {
		return v
	}
	var all []perConfigEntry[T]
	if cur := p.all.Load(); cur != nil {
		all = slices.Clip(*cur)
	}
	v := build(cfg)
	all = append(all, perConfigEntry[T]{cfg, v})
	p.all.Store(&all)
	return v
}

func (p *PerConfig[T]) lookup(cfg Config) (T, bool) {
	if cur := p.all.Load(); cur != nil {
		for _, e := range *cur {
			if e.cfg == cfg {
				return e.v, true
			}
		}
	}
	var zero T
	return zero, false
}

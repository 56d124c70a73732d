package chef

import (
	"sync"
	"sync/atomic"
)

// ParFor runs fn(0..n-1) on at most workers goroutines and returns when all
// calls finished. Workers pull the next index from a shared atomic counter,
// so a slow call never holds up the rest of the queue. workers <= 1 degrades
// to a plain loop on the caller's goroutine.
//
// It is the one worker pool behind every fan-out in the repository: the
// experiment grid, portfolio members and the cells of a sharded epoch.
// Callers keep results schedule-independent by writing each call's output
// to its own slot and merging the slots in index order.
func ParFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

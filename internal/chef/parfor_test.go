package chef

import "testing"

// TestParFor exercises the pool helper's edge cases.
func TestParFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 37
		got := make([]int, n)
		ParFor(workers, n, func(i int) { got[i] = i + 1 })
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not executed (got %d)", workers, i, v)
			}
		}
	}
	ParFor(4, 0, func(int) { t.Fatal("must not run") })
}

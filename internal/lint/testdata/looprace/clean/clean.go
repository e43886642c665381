// Package fixture shows the sanctioned fan-out shape, the clean case of
// the deleted looprace checker; no checker of the suite may report
// anything here.
package fixture

import "sync"

// Loop state is passed as arguments and the WaitGroup provides the
// synchronization point for the shared-slice writes.
func fanOut(items []int, results []int) {
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i, it int) {
			defer wg.Done()
			results[i] = it * 2
		}(i, it)
	}
	wg.Wait()
}

// A loop-variable capture, safe since Go 1.22 gives every iteration its
// own variables; results merge through the channel.
func captured(items []int, out chan<- int) {
	for i := range items {
		go func() {
			out <- i
		}()
	}
}

// Package syncpoint writes per-task slots from goroutines that nothing
// waits for: each write is slot-owned, but the function has no
// WaitGroup, mutex or channel, so its caller reads the slots while the
// workers may still be writing them.
package syncpoint

// FanOut hands each goroutine its own index and returns before any of
// them is known to have finished.
func FanOut(items []int) []int {
	results := make([]int, len(items))
	for i, it := range items {
		go func(i, it int) {
			results[i] = it * 2
		}(i, it)
	}
	return results
}

package gen

import (
	"fmt"
	"slices"
	"sync"

	"paragon/internal/detrand"
	"paragon/internal/graph"
)

// rmatShards is the fixed logical shard count of RMATSharded. The edge
// stream is cut into this many chunks regardless of how many workers run
// them, so the output depends only on (n, m, a, b, c, seed) — never on
// the parallelism. 64 matches the scheduler's sweepShards convention and
// divides any realistic worker count.
const rmatShards = 64

// RMATSharded generates the same structural class as RMAT — a
// recursive-matrix (Kronecker) graph with n vertices and approximately m
// undirected edges — but in parallel across `workers` goroutines, each
// drawing from its own deterministic splitmix64 stream. It exists for
// the 10M-vertex scale path, where the serial generator's single
// math/rand stream and single m-entry dedup map dominate wall time and
// transient memory.
//
// Design, and why the output is worker-count invariant:
//
//   - The m-edge budget is split over 64 fixed logical shards. Shard s
//     draws from splitmix64 stream derived from (seed, s), generates
//     candidate edges until it has its quota of locally-unique keys (or
//     exhausts 4x quota attempts, mirroring the serial generator's
//     attempt cap), and records them in a shard-owned slice. No shared
//     state is touched, so any number of workers produces the same 64
//     slices.
//   - Shard slices are merged in shard order, then globally deduped by
//     sorting the canonical edge keys — cross-shard duplicates are rare
//     (birthday-bounded by m^2 over the n^2/2 key space) and dropping
//     them undershoots m slightly, exactly like the serial generator's
//     duplicate collisions.
//   - Vertex ids are scattered by a seeded bijective bit-mix over the
//     padded 2^levels id space instead of rng.Perm: same purpose
//     (locality must not leak the recursion), O(1) memory instead of an
//     O(2^levels) permutation array.
//   - Isolated vertices are attached by ensureNoIsolatesHashed, which
//     derives each attachment from (seed, v) alone — no stream whose
//     position depends on how many isolates precede v, so the fix-up is
//     also order- and worker-independent.
//
// Transient memory is capped by the per-shard dedup: each in-flight
// shard holds a map of at most m/64 entries, so at w workers the peak
// map footprint is w/64 of the serial generator's, and the merge works
// on flat []int64 keys (8 bytes/edge) rather than map entries.
//
// RMATSharded is NOT stream-compatible with RMAT: the same seed gives a
// different (equally valid) graph. Goldens that pin serial RMAT output
// are unaffected; TestRMATShardedGolden pins this generator's own
// stream.
func RMATSharded(n int32, m int64, a, b, c float64, seed int64, workers int) *graph.Graph {
	if n < 2 {
		panic("gen: RMATSharded needs n >= 2")
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic(fmt.Sprintf("gen: RMATSharded bad probabilities a=%v b=%v c=%v", a, b, c))
	}
	if workers < 1 {
		workers = 1
	}
	levels := 0
	for (int64(1) << levels) < int64(n) {
		levels++
	}
	salt := detrand.Fin64(uint64(seed) * 0x94d049bb133111eb)

	// Phase 1: shards generate locally-deduped candidate keys in parallel.
	shardKeys := make([][]int64, rmatShards)
	work := make(chan int, rmatShards)
	for s := 0; s < rmatShards; s++ {
		work <- s
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				shardKeys[s] = rmatShard(n, m, a, b, c, seed, salt, levels, s)
			}
		}()
	}
	wg.Wait()

	// Phase 2: merge in shard order, dedup globally by sorting keys.
	var total int
	for _, ks := range shardKeys {
		total += len(ks)
	}
	keys := make([]int64, 0, total)
	for _, ks := range shardKeys {
		keys = append(keys, ks...)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	bld := graph.NewBuilder(n)
	bld.Reserve(int64(len(keys)))
	for _, key := range keys {
		bld.AddEdge(int32(key/int64(n)), int32(key%int64(n)))
	}
	ensureNoIsolatesHashed(bld, seed)
	return bld.Build()
}

// rmatShard generates shard s's quota of locally-unique canonical edge
// keys from its own splitmix64 stream.
func rmatShard(n int32, m int64, a, b, c float64, seed int64, salt uint64, levels, s int) []int64 {
	quota := m / rmatShards
	if int64(s) < m%rmatShards {
		quota++
	}
	if quota == 0 {
		return nil
	}
	rng := splitmix{state: detrand.Fin64(detrand.Fin64(uint64(seed)) + uint64(s)*0x9e3779b97f4a7c15)}
	ab, abc := a+b, a+b+c
	seen := make(map[int64]struct{}, quota)
	keys := make([]int64, 0, quota)
	attempts := quota * 4
	for i := int64(0); i < attempts && int64(len(keys)) < quota; i++ {
		var u, v uint64
		for l := 0; l < levels; l++ {
			r := rng.float64()
			u <<= 1
			v <<= 1
			switch {
			case r < a:
				// top-left: no bits set
			case r < ab:
				v |= 1
			case r < abc:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		pu := int64(scrambleID(u, salt, levels)) % int64(n)
		pv := int64(scrambleID(v, salt, levels)) % int64(n)
		if pu == pv {
			continue
		}
		if pu > pv {
			pu, pv = pv, pu
		}
		key := pu*int64(n) + pv
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		keys = append(keys, key)
	}
	return keys
}

// scrambleID permutes the padded 2^levels id space with a seeded
// bijection (odd-constant multiplies and xor-shifts are each invertible
// modulo a power of two), standing in for the serial generator's
// rng.Perm without its O(2^levels) memory.
func scrambleID(x, salt uint64, levels int) uint64 {
	mask := uint64(1)<<levels - 1
	sh := uint(levels/2 + 1)
	x = (x ^ salt) & mask
	x = (x * 0x9e3779b97f4a7c15) & mask
	x ^= x >> sh
	x = (x * 0xbf58476d1ce4e5b9) & mask
	x ^= x >> sh
	return x & mask
}

// splitmix is the splitmix64 sequential generator: a Weyl counter pushed
// through a finalizer. Streams with distinct initial states are
// independent for our purposes and cost no allocation.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return detrand.Fin64(r.state)
}

// float64 returns a uniform float in [0,1) from the top 53 bits.
func (r *splitmix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// ensureNoIsolatesHashed attaches every isolated vertex v to a partner
// derived from (seed, v) alone. Unlike ensureNoIsolates, which advances
// a shared sequential stream per isolate (so each attachment depends on
// every earlier one), the hashed form is independent per vertex — the
// property the sharded generator needs to stay worker-count invariant.
func ensureNoIsolatesHashed(bld *graph.Builder, seed int64) {
	n := bld.NumVertices()
	if n < 2 {
		return
	}
	for _, v := range bld.AppendIsolated(nil) {
		u := int32(detrand.Fin64(uint64(seed)^(uint64(v)*0xbf58476d1ce4e5b9)) % uint64(n))
		if u == v {
			u = (u + 1) % n
		}
		bld.AddEdge(v, u)
	}
}

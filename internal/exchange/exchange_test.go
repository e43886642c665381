package exchange

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// buildScenario creates s servers over a shared initial location view,
// with disjoint random updates and neighbor-derived needs — the shape of
// a PARAGON shuffle exchange.
func buildScenario(nVerts, nServers, updatesPer int, seed int64) ([]*Server, []int32) {
	rng := rand.New(rand.NewSource(seed))
	initial := make([]int32, nVerts)
	for v := range initial {
		initial[v] = int32(rng.Intn(nServers))
	}
	perm := rng.Perm(nVerts)
	servers := make([]*Server, nServers)
	idx := 0
	for i := range servers {
		s := &Server{
			ID:        i,
			Locations: append([]int32(nil), initial...),
			Updates:   map[int32]int32{},
		}
		for u := 0; u < updatesPer && idx < len(perm); u++ {
			v := int32(perm[idx])
			idx++
			s.Updates[v] = int32(rng.Intn(nServers))
		}
		// Needs: a random sample standing in for neighbor lookups.
		for u := 0; u < updatesPer*4; u++ {
			s.Needs = append(s.Needs, int32(rng.Intn(nVerts)))
		}
		servers[i] = s
	}
	// Expected final view.
	want := append([]int32(nil), initial...)
	for _, s := range servers {
		for v, loc := range s.Updates {
			want[v] = loc
		}
	}
	return servers, want
}

func TestRegionPropagatesAllUpdates(t *testing.T) {
	servers, want := buildScenario(1000, 6, 40, 1)
	vol, err := Region{Size: 256}.Propagate(servers)
	if err != nil {
		t.Fatal(err)
	}
	if !Consistent(servers) {
		t.Fatal("views diverged")
	}
	for v, loc := range want {
		if servers[0].Locations[v] != loc {
			t.Fatalf("vertex %d: %d, want %d", v, servers[0].Locations[v], loc)
		}
	}
	if vol != 1000*4 {
		t.Fatalf("region volume = %d, want O(|V|) = 4000", vol)
	}
}

func TestRegionDefaultSize(t *testing.T) {
	servers, _ := buildScenario(100, 3, 5, 2)
	vol, err := Region{}.Propagate(servers)
	if err != nil {
		t.Fatal(err)
	}
	if vol != 400 {
		t.Fatalf("volume = %d", vol)
	}
}

func TestRegionConflictDetection(t *testing.T) {
	servers, _ := buildScenario(100, 2, 0, 3)
	servers[0].Updates[7] = 0
	servers[1].Updates[7] = 1
	if _, err := (Region{}).Propagate(servers); err == nil {
		t.Fatal("expected conflict error")
	}
}

// Directory must surface conflicting shard updates as an error (like
// Region), not silently keep the last writer.
func TestDirectoryConflictDetection(t *testing.T) {
	servers, _ := buildScenario(100, 2, 0, 3)
	servers[0].Updates[7] = 0
	servers[1].Updates[7] = 1
	_, err := (Directory{}).Propagate(servers)
	if err == nil {
		t.Fatal("expected conflict error")
	}
	if !strings.Contains(err.Error(), "conflicting updates for vertex 7") {
		t.Fatalf("conflict error %q does not name vertex 7", err)
	}
}

// Multiple conflicts must report a deterministic representative (the
// lowest vertex id), whatever order the goroutines pushed in.
func TestDirectoryConflictDeterministicReport(t *testing.T) {
	var msgs []string
	for i := 0; i < 20; i++ {
		servers, _ := buildScenario(100, 4, 0, 3)
		for _, v := range []int32{90, 12, 55} {
			servers[1].Updates[v] = 1
			servers[3].Updates[v] = 2
		}
		_, err := (Directory{}).Propagate(servers)
		if err == nil {
			t.Fatal("expected conflict error")
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs {
		if m != msgs[0] {
			t.Fatalf("conflict report unstable: %q vs %q", m, msgs[0])
		}
		if !strings.Contains(m, "vertex 12") {
			t.Fatalf("conflict report %q does not pick the lowest vertex", m)
		}
	}
}

// Agreeing duplicate updates (same vertex, same location) are not a
// conflict — retransmissions and echoes stay legal.
func TestDirectoryAgreeingDuplicatesOK(t *testing.T) {
	servers, _ := buildScenario(100, 2, 0, 3)
	servers[0].Updates[7] = 1
	servers[1].Updates[7] = 1
	if _, err := (Directory{}).Propagate(servers); err != nil {
		t.Fatalf("agreeing duplicates rejected: %v", err)
	}
}

func TestDirectoryDeliversUpdatesAndPulls(t *testing.T) {
	servers, want := buildScenario(1000, 6, 40, 4)
	// Directory only refreshes what a server needs or updated itself;
	// make every server need everything for a full comparison.
	for _, s := range servers {
		s.Needs = s.Needs[:0]
		for v := 0; v < 1000; v++ {
			s.Needs = append(s.Needs, int32(v))
		}
	}
	vol, err := Directory{}.Propagate(servers)
	if err != nil {
		t.Fatal(err)
	}
	if !Consistent(servers) {
		t.Fatal("views diverged")
	}
	for v, loc := range want {
		if servers[0].Locations[v] != loc {
			t.Fatalf("vertex %d: %d, want %d", v, servers[0].Locations[v], loc)
		}
	}
	if vol <= 1000*4 {
		t.Fatalf("directory volume = %d — should exceed the region reduce", vol)
	}
}

func TestDirectoryVolumeScalesWithNeeds(t *testing.T) {
	// The paper's complaint: directory traffic is O(|V|+|E|). Double the
	// needs (≈ edges) and volume must grow.
	s1, _ := buildScenario(500, 4, 20, 5)
	v1, err := Directory{}.Propagate(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := buildScenario(500, 4, 20, 5)
	for _, s := range s2 {
		s.Needs = append(s.Needs, s.Needs...)
	}
	v2, err := Directory{}.Propagate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("doubling needs did not raise volume: %d vs %d", v1, v2)
	}
}

func TestRegionBeatsDirectoryOnVolume(t *testing.T) {
	// With realistic needs (average degree ≈ 12), region exchange must
	// move far fewer bytes — the reason the paper adopted it.
	mk := func() []*Server {
		servers, _ := buildScenario(2000, 8, 50, 6)
		for _, s := range servers {
			s.Needs = s.Needs[:0]
			rng := rand.New(rand.NewSource(int64(s.ID)))
			for i := 0; i < 2000*12/8; i++ {
				s.Needs = append(s.Needs, int32(rng.Intn(2000)))
			}
		}
		return servers
	}
	dirVol, err := Directory{}.Propagate(mk())
	if err != nil {
		t.Fatal(err)
	}
	regVol, err := Region{}.Propagate(mk())
	if err != nil {
		t.Fatal(err)
	}
	if regVol >= dirVol {
		t.Fatalf("region %d not below directory %d", regVol, dirVol)
	}
}

func TestStrategiesOnRealRefinementShape(t *testing.T) {
	// Drive the scenario from an actual decomposition so vertex ids and
	// partitions are realistic.
	g := gen.RMAT(1500, 9000, 0.57, 0.19, 0.19, 7)
	p := stream.DG(g, 8, stream.DefaultOptions())
	nServers := 4
	servers := make([]*Server, nServers)
	for i := range servers {
		servers[i] = &Server{
			ID:        i,
			Locations: append([]int32(nil), p.Assign...),
			Updates:   map[int32]int32{},
		}
	}
	// Each server "moves" boundary vertices of its two partitions.
	bv := partition.BoundaryVertices(g, p)
	for i, s := range servers {
		for _, v := range bv[i*2] {
			s.Updates[v] = int32(i*2 + 1)
		}
		for _, u := range bv[i*2+1] {
			if _, dup := s.Updates[u]; !dup {
				s.Updates[u] = int32(i * 2)
			}
		}
		for v := int32(0); v < g.NumVertices(); v++ {
			if p.Assign[v] == int32(i*2) || p.Assign[v] == int32(i*2+1) {
				s.Needs = append(s.Needs, g.Neighbors(v)...)
			}
		}
	}
	if _, err := (Region{Size: 512}).Propagate(servers); err != nil {
		t.Fatal(err)
	}
	if !Consistent(servers) {
		t.Fatal("region exchange diverged on real shape")
	}
}

func TestEmptyServers(t *testing.T) {
	if _, err := (Region{}).Propagate(nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := (Directory{}).Propagate(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestMismatchedViews(t *testing.T) {
	a := &Server{ID: 0, Locations: make([]int32, 10), Updates: map[int32]int32{}}
	b := &Server{ID: 1, Locations: make([]int32, 9), Updates: map[int32]int32{}}
	if _, err := (Region{}).Propagate([]*Server{a, b}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := (Directory{}).Propagate([]*Server{a, b}); err == nil {
		t.Fatal("expected length error")
	}
	if Consistent([]*Server{a, b}) {
		t.Fatal("mismatched views reported consistent")
	}
}

// Property: after a region exchange, every server view equals the
// initial view overlaid with the union of disjoint updates.
func TestQuickRegionCorrect(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int64(sizeRaw%200) + 16
		servers, want := buildScenario(777, 5, 30, seed)
		if _, err := (Region{Size: size}).Propagate(servers); err != nil {
			return false
		}
		if !Consistent(servers) {
			return false
		}
		for v, loc := range want {
			if servers[2].Locations[v] != loc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

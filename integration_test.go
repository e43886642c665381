package paragon_test

import (
	"encoding/binary"
	"testing"

	paragonlib "paragon"

	"paragon/internal/apps"
	"paragon/internal/aragon"
	"paragon/internal/aragonlb"
	"paragon/internal/bsp"
	"paragon/internal/exchange"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/migrate"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/portfolio"
	"paragon/internal/session"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// Cross-package integration tests: the full pipelines a deployment would
// run, asserting end-to-end semantic invariants rather than per-module
// behavior.

// TestPipelinePartitionRefineMigrateRun drives the complete §5 story:
// initial decomposition → PARAGON refinement → physical migration with
// application context → BFS on the migrated stores' placement. The
// application answers must be identical at every stage.
func TestPipelinePartitionRefineMigrateRun(t *testing.T) {
	g := gen.RMAT(4000, 24000, 0.57, 0.19, 0.19, 17)
	g.UseDegreeWeights()
	cluster := topology.PittCluster(2)
	k := cluster.TotalCores()
	costs, err := cluster.PartitionCostMatrix(k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf, _ := cluster.NodeOf(k)

	old := stream.DG(g, int32(k), stream.DefaultOptions())

	// Reference answers on the initial placement.
	e0, err := bsp.NewEngine(g, old, cluster, bsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := apps.BFS(e0, g, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Refine.
	now := old.Clone()
	cfg := paragon.DefaultConfig()
	cfg.Seed = 5
	cfg.NodeOf = nodeOf
	st, err := paragon.Refine(g, now, costs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MigratedVertices == 0 {
		t.Skip("refinement moved nothing at this seed; pipeline untestable")
	}

	// Migrate the physical stores, carrying the BFS distances as app
	// context (the §5 example).
	stores := migrate.BuildStores(g, old)
	plan, err := migrate.NewPlan(old, now)
	if err != nil {
		t.Fatal(err)
	}
	appDist := append([]int64(nil), ref...)
	ctx := migrate.AppContext{
		Save: func(v int32) []byte {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, uint64(appDist[v]))
			return buf
		},
		Restore: func(v int32, data []byte) {
			appDist[v] = int64(binary.LittleEndian.Uint64(data))
		},
	}
	if _, err := migrate.Execute(stores, plan, ctx); err != nil {
		t.Fatal(err)
	}
	if err := migrate.Verify(stores, g, now); err != nil {
		t.Fatalf("stores do not realize the refined decomposition: %v", err)
	}
	for v := range appDist {
		if appDist[v] != ref[v] {
			t.Fatalf("application context corrupted at vertex %d", v)
		}
	}

	// Re-run on the new placement: identical answers, (typically) less
	// expensive communication.
	e1, err := bsp.NewEngine(g, now, cluster, bsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := apps.BFS(e1, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("BFS answer changed by refinement at vertex %d: %d vs %d", v, got[v], ref[v])
		}
	}
}

// TestParagonDeltasReplayThroughExchange replays a PARAGON refinement's
// final assignment through the §5 region exchange: servers that each
// own a slice of partitions and know only their own moves end with
// identical, correct views.
func TestParagonDeltasReplayThroughExchange(t *testing.T) {
	g := gen.Mesh2D(30, 30)
	g.UseDegreeWeights()
	old := stream.DG(g, 8, stream.DefaultOptions())
	now := old.Clone()
	if _, err := paragon.RefineUniform(g, now, paragon.Config{DRP: 4, Shuffles: 2, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Four servers, two partitions each; each knows the moves of its own
	// partitions (destination recorded by final owner's server).
	servers := make([]*exchange.Server, 4)
	for i := range servers {
		servers[i] = &exchange.Server{
			ID:        i,
			Locations: append([]int32(nil), old.Assign...),
			Updates:   map[int32]int32{},
		}
	}
	for v := range old.Assign {
		if old.Assign[v] != now.Assign[v] {
			owner := int(now.Assign[v] / 2)
			servers[owner].Updates[int32(v)] = now.Assign[v]
		}
	}
	if _, err := (exchange.Region{Size: 128}).Propagate(servers); err != nil {
		t.Fatal(err)
	}
	if !exchange.Consistent(servers) {
		t.Fatal("server views diverged")
	}
	for v := range now.Assign {
		if servers[0].Locations[v] != now.Assign[v] {
			t.Fatalf("vertex %d: exchanged view %d vs truth %d", v, servers[0].Locations[v], now.Assign[v])
		}
	}
}

// TestFacadeAndInternalAgree pins the facade to the internal packages:
// the re-exported entry points must produce identical results.
func TestFacadeAndInternalAgree(t *testing.T) {
	gf := paragonlib.RMAT(500, 2500, 0.57, 0.19, 0.19, 3)
	gi := gen.RMAT(500, 2500, 0.57, 0.19, 0.19, 3)
	if gf.NumEdges() != gi.NumEdges() {
		t.Fatal("facade RMAT differs from internal")
	}
	pf := paragonlib.DG(gf, 6)
	pi := stream.DG(gi, 6, stream.DefaultOptions())
	for v := range pf.Assign {
		if pf.Assign[v] != pi.Assign[v] {
			t.Fatal("facade DG differs from internal")
		}
	}
	uni := topology.UniformMatrix(6)
	if paragonlib.CommCost(gf, pf, uni, 10) != partition.CommCost(gi, pi, uni, 10) {
		t.Fatal("facade CommCost differs")
	}
}

// TestChurnTriggerRefineLoop is the full dynamism loop on internals:
// churn → trigger decision → refine → trigger clears.
func TestChurnTriggerRefineLoop(t *testing.T) {
	base := gen.RMAT(3000, 18000, 0.57, 0.19, 0.19, 21)
	base.UseDegreeWeights()
	p := stream.DG(base, 10, stream.DefaultOptions())

	ov := graph.NewOverlay(base)
	// Heavy churn concentrated on high-ids: unbalances and stales p.
	applied := 0
	for v := int32(0); v < 600; v++ {
		u := base.NumVertices() - 1 - v
		if v != u && !ov.HasEdge(v, u) {
			if ov.AddEdge(v, u, 1) == nil {
				applied++
			}
		}
	}
	cur := ov.Materialize()
	cur.UseDegreeWeights()
	// p still assigns every vertex (vertex set unchanged).
	if err := p.Validate(cur); err != nil {
		t.Fatal(err)
	}
	// (The trigger policy is exercised in internal/dyn; here we assert
	// the refinement step of the loop repairs the churned decomposition.)
	before := partition.EdgeCut(cur, p)
	if _, err := paragon.RefineUniform(cur, p, paragon.Config{DRP: 5, Shuffles: 2, Seed: 2, MaxImbalance: 0.1}); err != nil {
		t.Fatal(err)
	}
	if after := partition.EdgeCut(cur, p); after >= before {
		t.Fatalf("refinement did not repair churned cut: %d -> %d", before, after)
	}
}

// TestJaggedCostMatrixRejected: a cost matrix with enough rows but one
// short row must come back as an error from every refinement entry
// point, not as an index panic inside a kernel.
func TestJaggedCostMatrixRejected(t *testing.T) {
	g := gen.RMAT(400, 2400, 0.57, 0.19, 0.19, 3)
	g.UseDegreeWeights()
	const k = 4
	c := topology.UniformMatrix(k)
	c[2] = c[2][:3]
	entries := []struct {
		name string
		run  func(p *partition.Partitioning) error
	}{
		{"paragon.Refine", func(p *partition.Partitioning) error {
			_, err := paragon.Refine(g, p, c, paragon.Config{Seed: 1})
			return err
		}},
		{"aragon.Refine", func(p *partition.Partitioning) error {
			_, err := aragon.Refine(g, p, c, aragon.Config{})
			return err
		}},
		{"portfolio.RefineWithPool", func(p *partition.Partitioning) error {
			_, err := portfolio.RefineWithPool(g, p, c, paragon.Config{Seed: 1}, &portfolio.Pool{})
			return err
		}},
		{"session.New", func(p *partition.Partitioning) error {
			_, err := session.New(g, p, session.Config{Costs: c})
			return err
		}},
		{"aragonlb.Repartition", func(p *partition.Partitioning) error {
			_, err := aragonlb.Repartition(g, p, c, aragonlb.Config{})
			return err
		}},
	}
	for _, e := range entries {
		if err := e.run(stream.DG(g, k, stream.DefaultOptions())); err == nil {
			t.Errorf("%s accepted a cost matrix whose row 2 has 3 of %d entries", e.name, k)
		}
	}
}

package paragon_test

import (
	"bytes"
	"testing"

	paragonlib "paragon"
)

// The facade tests exercise the public API end to end, exactly as a
// downstream user would (no internal imports).

func TestPublicAPIPipeline(t *testing.T) {
	g := paragonlib.RMAT(2000, 10000, 0.57, 0.19, 0.19, 1)
	g.UseDegreeWeights()
	cluster := paragonlib.PittCluster(2)
	k := cluster.TotalCores()
	costs, err := cluster.PartitionCostMatrix(k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf, err := cluster.NodeOf(k)
	if err != nil {
		t.Fatal(err)
	}
	p := paragonlib.DG(g, int32(k))
	before := paragonlib.Evaluate(g, p, costs, 10)

	cfg := paragonlib.DefaultConfig()
	cfg.Seed = 7
	cfg.NodeOf = nodeOf
	stats, err := paragonlib.Refine(g, p, costs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := paragonlib.Evaluate(g, p, costs, 10)
	if after.CommCost >= before.CommCost {
		t.Fatalf("refinement did not improve: %v -> %v", before.CommCost, after.CommCost)
	}
	if stats.Moves == 0 {
		t.Fatal("no moves recorded")
	}

	// Plan the migration: one move per vertex whose owner changed.
	old := paragonlib.DG(g, int32(k))
	plan, err := paragonlib.NewMigrationPlan(old, p)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for v := range p.Assign {
		if old.Assign[v] != p.Assign[v] {
			changed++
		}
	}
	if len(plan.Moves) != changed || changed == 0 {
		t.Fatalf("plan has %d moves for %d changed owners", len(plan.Moves), changed)
	}
	// A nil injector migrates fault-free: the plan commits.
	stores := paragonlib.BuildMigrationStores(g, old)
	mst, err := paragonlib.ExecuteMigration(stores, plan, paragonlib.MigrationAppContext{}, nil)
	if err != nil || mst.Aborted || mst.MovedVertices != int64(changed) {
		t.Fatalf("fault-free migration: %+v, %v", mst, err)
	}
	if err := paragonlib.VerifyMigration(stores, g, p); err != nil {
		t.Fatal(err)
	}

	// Run BFS on the refined placement.
	engine, err := paragonlib.NewEngine(g, p, cluster, paragonlib.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist, res, err := paragonlib.BFS(engine, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.JET <= 0 || len(dist) != int(g.NumVertices()) {
		t.Fatalf("BFS run implausible: %+v", res)
	}
}

func TestPublicAPIFormats(t *testing.T) {
	g := paragonlib.Mesh2D(8, 8)
	var metisBuf, binBuf bytes.Buffer
	if err := paragonlib.WriteMETIS(&metisBuf, g); err != nil {
		t.Fatal(err)
	}
	if err := paragonlib.WriteBinary(&binBuf, g); err != nil {
		t.Fatal(err)
	}
	g1, err := paragonlib.ReadMETIS(&metisBuf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := paragonlib.ReadBinary(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g.NumEdges() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trips lost edges")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := paragonlib.RoadGrid(20, 20, 0.72, 0.05, 3)
	hp := paragonlib.HP(g, 4)
	mp := paragonlib.Metis(g, 4, 1)
	uni := paragonlib.UniformMatrix(4)
	if paragonlib.CommCost(g, mp, uni, 1) >= paragonlib.CommCost(g, hp, uni, 1) {
		t.Fatal("metis not below hashing")
	}
	rp, err := paragonlib.Repartition(g, hp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Validate(g); err != nil {
		t.Fatal(err)
	}
	ldg := paragonlib.LDG(g, 4)
	if s := paragonlib.Skewness(g, ldg); s > 1.5 {
		t.Fatalf("LDG skew %v", s)
	}
	p2 := hp.Clone()
	if err := paragonlib.RefineSerial(g, p2, uni, 10, 0.05); err != nil {
		t.Fatal(err)
	}
	if _, err := paragonlib.RefineUniform(g, hp.Clone(), paragonlib.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDatasetsAndOverlay(t *testing.T) {
	if len(paragonlib.Datasets()) != 12 {
		t.Fatal("dataset registry size")
	}
	g := paragonlib.Mesh2D(6, 6)
	o := paragonlib.NewOverlay(g)
	if _, err := o.AddEdge(0, 35, 2); err != nil {
		t.Fatal(err)
	}
	m := o.Materialize()
	if !m.HasEdge(0, 35) {
		t.Fatal("overlay edge lost")
	}
	b := paragonlib.NewBuilder(3)
	b.AddEdge(0, 1)
	if b.Build().NumEdges() != 1 {
		t.Fatal("builder via facade")
	}
}

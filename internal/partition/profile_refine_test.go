package partition_test

import (
	"slices"
	"strings"
	"testing"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/session"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// TestRefineRefusesOversizedProfile reaches the neighbor profile's size
// refusal through paragon.Refine, under a limit one below what the graph's
// full table needs (headers included: Σ (min(deg, k) + 1)): the call fails
// with the overflow error and leaves the decomposition alone. At exactly
// the need it refines.
func TestRefineRefusesOversizedProfile(t *testing.T) {
	const k = 6
	g := gen.Mesh2D(12, 12)
	var need int64
	for v := int32(0); v < g.NumVertices(); v++ {
		need += int64(min(g.Degree(v), k)) + 1
	}
	c, err := topology.PittCluster(1).PartitionCostMatrix(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.HP(g, k)
	before := slices.Clone(p.Assign)

	restore := partition.SetMaxProfileEntries(need - 1)
	_, err = paragon.Refine(g, p, c, paragon.DefaultConfig())
	restore()
	if err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("limit %d, need %d: err = %v, want the overflow error", need-1, need, err)
	}
	if !slices.Equal(p.Assign, before) {
		t.Fatal("the refused Refine changed the decomposition")
	}

	defer partition.SetMaxProfileEntries(need)()
	st, err := paragon.Refine(g, p, c, paragon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 {
		t.Fatal("a hash-partitioned mesh refined with zero moves; the accepted call is vacuous")
	}
}

// TestSessionRefusesOversizedObjective reaches the objective grid's
// overflow refusal through session.New, under a bound equal to what the
// graph's largest possible score needs (max C·(Alpha(α)·Σ w(e) +
// Σ vs(v)·2^AlphaBits)): New fails with the overflow error. One unit
// above the need it builds the session.
func TestSessionRefusesOversizedObjective(t *testing.T) {
	const k = 6
	g := gen.Mesh2D(12, 12)
	c, err := topology.PittCluster(1).PartitionCostMatrix(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := partition.CheckCosts(c, k)
	if err != nil {
		t.Fatal(err)
	}
	var sizes int64
	for v := int32(0); v < g.NumVertices(); v++ {
		sizes += int64(g.VertexSize(v))
	}
	need := slices.Max(cs.C) * (partition.Alpha(10)*g.TotalEdgeWeight() + sizes<<partition.AlphaBits)
	p := stream.HP(g, k)
	cfg := session.Config{Costs: c}

	restore := partition.SetMaxObjective(need)
	_, err = session.New(g, p, cfg)
	restore()
	if err == nil || !strings.Contains(err.Error(), "int64") {
		t.Fatalf("limit %d = need: err = %v, want the overflow error", need, err)
	}
	defer partition.SetMaxObjective(need + 1)()
	if _, err := session.New(g, p, cfg); err != nil {
		t.Fatalf("limit one above the need %d: %v", need, err)
	}
}

// TestSessionEpochRefusesOversizedProfile reaches the neighbor profile's
// size refusal through a session's first epoch, under a limit below any
// table the snapshot could need (one entry per vertex is the header
// alone): the join reports the refusal, the epoch is aborted and the live
// decomposition is what it was. Under the real limit the same schedule
// commits its epoch.
func TestSessionEpochRefusesOversizedProfile(t *testing.T) {
	const k = 6
	g := gen.Mesh2D(12, 12)
	c, err := topology.PittCluster(1).PartitionCostMatrix(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.HP(g, k)
	run := func() (*session.Session, error) {
		s, err := session.New(g, p.Clone(), session.Config{
			Costs:   c,
			Trigger: dyn.TriggerPolicy{MaxSkew: 100, MaxChurn: 1e-9},
			Refine:  paragon.Config{Workers: 1, Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := dyn.NewWorkload(7, dyn.WorkloadConfig{Adds: 8})
		for b := 0; b < 4; b++ {
			if _, err := s.Ingest(w.Next(s.Source())); err != nil {
				return s, err
			}
		}
		return s, nil
	}

	restore := partition.SetMaxProfileEntries(int64(g.NumVertices()))
	s, err := run()
	restore()
	if err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Fatalf("err = %v, want the profile's overflow error from the first epoch", err)
	}
	if st := s.Stats(); st.EpochsAborted != 1 || st.EpochsCommitted != 0 || st.EpochMoves != 0 {
		t.Fatalf("refused epoch: %d aborted, %d committed, %d moves", st.EpochsAborted, st.EpochsCommitted, st.EpochMoves)
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if got, _ := s.Directory().Lookup(v); got != p.Assign[v] {
			t.Fatalf("vertex %d served at %d after the refused epoch, was %d", v, got, p.Assign[v])
		}
	}

	s, err = run()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.EpochsCommitted == 0 {
		t.Fatal("under the real limit the schedule committed no epoch; the refusal test is vacuous")
	}
}

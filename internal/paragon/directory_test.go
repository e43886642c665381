package paragon

import (
	"slices"
	"testing"

	"paragon/internal/dir"
	"paragon/internal/faultsim"
	"paragon/internal/gen"
	"paragon/internal/stream"
)

// The serving-layer integration: with a Directory wired into Config,
// every committed refinement round becomes one directory epoch, the
// final epoch serves exactly the refined assignment, and recovery of the
// directory's journal reproduces it bit-identically.
func TestRefinePublishesDirectoryEpochs(t *testing.T) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	p := stream.DG(g, 16, stream.DefaultOptions())

	d, err := dir.New(p.Assign, p.K, dir.Options{ShardBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DRP: 4, Shuffles: 3, Seed: 11, Directory: d}
	st, err := RefineUniform(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirectoryEpochs != st.Rounds {
		t.Fatalf("DirectoryEpochs = %d, want one per round (%d)", st.DirectoryEpochs, st.Rounds)
	}
	if d.Epoch() != int64(st.Rounds) {
		t.Fatalf("directory epoch = %d, want %d", d.Epoch(), st.Rounds)
	}
	// The live epoch serves the refined assignment, vertex for vertex.
	for v := int32(0); v < g.NumVertices(); v++ {
		if rank, _ := d.Lookup(v); rank != p.Assign[v] {
			t.Fatalf("vertex %d: directory says %d, refinement says %d", v, rank, p.Assign[v])
		}
	}
	// The journal reproduces the final serving state.
	r, err := dir.Recover(d.JournalBytes(), dir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != d.Epoch() || r.Current().AssignHash() != d.Current().AssignHash() {
		t.Fatal("recovered directory diverged from the live one")
	}
}

// Directory publish faults degrade the serving layer, never the
// refinement: aborted flips are counted, the final refinement result is
// identical to a directory-less run, and the directory never serves a
// state that was not some committed epoch.
func TestRefineSurvivesDirectoryPublishFaults(t *testing.T) {
	g := gen.RMAT(1500, 9000, 0.57, 0.19, 0.19, 6)
	g.UseDegreeWeights()
	base := stream.DG(g, 12, stream.DefaultOptions())

	// Reference: no directory at all.
	pRef := base.Clone()
	if _, err := RefineUniform(g, pRef, Config{DRP: 4, Shuffles: 3, Seed: 4}); err != nil {
		t.Fatal(err)
	}

	fab := faultsim.NewInjector(faultsim.Config{Seed: 8, Rate: 0.5})
	d, err := dir.New(base.Assign, base.K, dir.Options{ShardBits: 8, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	p := base.Clone()
	st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 3, Seed: 4, Directory: d})
	if err != nil {
		t.Fatal(err)
	}
	for v := range p.Assign {
		if p.Assign[v] != pRef.Assign[v] {
			t.Fatalf("directory faults leaked into refinement at vertex %d", v)
		}
	}
	if st.DirectoryEpochs+st.Faults.PublishAborts != st.Rounds {
		t.Fatalf("publish accounting: %d epochs + %d aborts != %d rounds",
			st.DirectoryEpochs, st.Faults.PublishAborts, st.Rounds)
	}
	if st.Faults.PublishAborts == 0 {
		t.Fatal("rate 0.5 fired no publish aborts — directory fabric not wired in")
	}
	// Whatever the directory serves is a committed epoch: recovery of
	// its journal agrees exactly.
	r, err := dir.Recover(d.JournalBytes(), dir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != d.Epoch() || r.Current().AssignHash() != d.Current().AssignHash() {
		t.Fatal("directory diverged from its own journal under publish faults")
	}
}

// A directory built for another decomposition is rejected up front, before
// round 0 can commit moves into p: the caller gets an error, an untouched
// p, and a directory still serving epoch 0.
func TestMismatchedDirectoryRejectedBeforeRefining(t *testing.T) {
	g := gen.RMAT(2000, 12000, 0.57, 0.19, 0.19, 5)
	g.UseDegreeWeights()
	base := stream.DG(g, 16, stream.DefaultOptions())
	n := g.NumVertices()

	fewerRanks := make([]int32, n)
	for v := range fewerRanks {
		fewerRanks[v] = base.Assign[v] % (base.K - 1)
	}
	for _, tc := range []struct {
		name   string
		assign []int32
		k      int32
	}{
		{"n-1 vertices", base.Assign[:n-1], base.K},
		{"k-1 ranks", fewerRanks, base.K - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := dir.New(tc.assign, tc.k, dir.Options{ShardBits: 8})
			if err != nil {
				t.Fatal(err)
			}
			p := base.Clone()
			st, err := RefineUniform(g, p, Config{DRP: 4, Shuffles: 3, Seed: 11, Directory: d})
			if err == nil {
				t.Fatal("mismatched directory accepted")
			}
			if !slices.Equal(p.Assign, base.Assign) {
				t.Error("p was refined before the directory was rejected")
			}
			if d.Epoch() != 0 {
				t.Errorf("directory moved to epoch %d", d.Epoch())
			}
			checkRoundsCounted(t, st)
		})
	}
}

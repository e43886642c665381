package session

import (
	"bytes"
	"testing"

	"paragon/internal/dyn"
	"paragon/internal/gen"
	"paragon/internal/graph"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/topology"
)

// FuzzSessionInput feeds bytes through a graph reader — ReadBinary,
// ReadMETIS or ReadEdgeList, chosen by the first byte — and holds what a
// reader accepts, with at least two vertices, to what the stack promises
// it: a session at k = 2 opens on it, takes a batch of adds and removes
// and drains, and the overlay's next freeze is the graph its live rows
// describe (builderFreeze, the reference TestSessionFreezeMatchesBuilder
// holds every launch to); one Refine at k = 2 leaves a valid
// decomposition.
func FuzzSessionInput(f *testing.F) {
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, gen.RMAT(40, 120, 0.57, 0.19, 0.19, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{0}, bin.Bytes()...))
	f.Add([]byte("\x01" + "4 4 1\n2 3 4 1\n1 3 3 1\n2 1 4 2\n1 1 3 2\n"))
	f.Add([]byte("\x01" + "3 1\n2\n1\n\n"))
	f.Add([]byte("\x02" + "0 1\n1 2 5\n2 3\n3 0 2\n0 2\n"))
	f.Add([]byte("\x02" + "7 9\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		var g0 *graph.Graph
		var err error
		switch body := bytes.NewReader(in[1:]); in[0] % 3 {
		case 0:
			g0, err = graph.ReadBinary(body)
		case 1:
			g0, err = graph.ReadMETIS(body)
		default:
			g0, err = graph.ReadEdgeList(body)
		}
		if err != nil || g0.NumVertices() < 2 {
			return
		}
		n := g0.NumVertices()
		p0 := partition.New(2, n)
		for v := range p0.Assign {
			p0.Assign[v] = int32(v) % 2
		}

		cfg := Config{Costs: topology.UniformMatrix(2)}
		cfg.Refine.Workers = 2
		cfg.Refine.Seed = 5
		s, err := New(g0, p0, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		b := dyn.Batch{Ops: []dyn.EdgeOp{
			{Add: true, U: 0, V: n - 1, W: 3},
			{Add: true, U: 1, V: n / 2, W: 1},
			{Add: true, U: n - 1, V: n / 3, W: 2},
		}}
		for _, v := range []int32{0, n - 1, n / 2} {
			if row := s.g.Row(v); len(row) > 0 {
				b.Ops = append(b.Ops, dyn.EdgeOp{U: v, V: row[len(row)/2].To})
			}
		}
		if _, err := s.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if _, err := s.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		requireSameGraph(t, s.g.Materialize(), builderFreeze(s, g0))

		p := p0.Clone()
		rcfg := paragon.DefaultConfig()
		rcfg.Shuffles, rcfg.Workers, rcfg.Seed = 1, 2, 5
		if _, err := paragon.Refine(g0, p, topology.UniformMatrix(2), rcfg); err != nil {
			t.Fatalf("Refine: %v", err)
		}
		if err := p.Validate(g0); err != nil {
			t.Fatalf("Refine left an invalid decomposition: %v", err)
		}
	})
}

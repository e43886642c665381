package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// Parser fuzzing: whatever bytes arrive, the readers must either return
// an error or a graph that passes Validate and that its consumers can
// use — never panic, never produce a corrupt CSR.

// checkParsed is the oracle for a graph a reader accepted: it passes
// Validate, and an overlay freezes it without a panic into the same
// bytes, as a session's first freeze does.
func checkParsed(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("parsed graph invalid: %v", err)
	}
	var want, got bytes.Buffer
	if err := WriteBinary(&want, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&got, NewOverlay(g).Materialize()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the overlay's freeze differs from the parsed graph")
	}
}

func FuzzParseMETIS(f *testing.F) {
	f.Add("3 3\n2 3\n1 3\n1 2\n")
	f.Add("2 1 11\n1 1 2 5\n1 1 1 5\n")
	f.Add("% comment\n1 0\n\n")
	f.Add("3 2 100\n7 2\n7 1 3\n7 2\n")
	f.Add("junk")
	f.Add("-1 0\n")         // negative n once flowed into make() and panicked
	f.Add("1 -5\n\n")       // negative m
	f.Add("2147483648 0\n") // n overflows int32
	f.Add("2147483640 8\n") // a 2^31-vertex header over an empty body
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMETIS(strings.NewReader(in))
		if err != nil {
			return
		}
		checkParsed(t, g)
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 3\n# c\n")
	f.Add("100 200 5\n")
	f.Add("a b\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		checkParsed(t, g)
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	g := buildPaperGraph()
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PARG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkParsed(t, g)
	})
}

// Constructor fuzzing: bytes become an edge set (vertex count, then
// (u, v, w) triples; self-loops and repeats skipped), the rows are
// shuffled, and the direct fill must equal the Builder freeze of the same
// edges at one worker and at several.
func FuzzFromSymmetricRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 3})
	f.Add([]byte{40, 0, 1, 5, 0, 2, 5, 0, 3, 5, 0, 1, 9, 7, 7, 7, 39, 0, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			in = []byte{0}
		}
		n := int32(in[0])
		s := newSymRows(n)
		seed := int64(n)
		for e := in[1:]; len(e) >= 3 && n > 0; e = e[3:] {
			u, v, w := int32(e[0])%n, int32(e[1])%n, 1+int32(e[2])
			seed = seed*131 + int64(e[2])
			if u != v && !s.has(u, v) {
				s.add(u, v, w)
			}
		}
		s.shuffle(rand.New(rand.NewSource(seed)))
		want := s.viaBuilder()
		for _, workers := range []int{1, 4} {
			got := s.freeze(workers)
			requireSameCSR(t, got, want)
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
	})
}

package graph

import (
	"bytes"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := buildPaperGraph()
	g.UseDegreeWeights()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("size mismatch after round trip")
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if g2.VertexWeight(v) != g.VertexWeight(v) || g2.VertexSize(v) != g.VertexSize(v) {
			t.Fatalf("vertex %d attrs differ", v)
		}
		a1, a2 := g.Neighbors(v), g2.Neighbors(v)
		w1, w2 := g.EdgeWeights(v), g2.EdgeWeights(v)
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] || w1[i] != w2[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 {
		t.Fatal("empty graph round trip failed")
	}
}

func TestBinaryErrors(t *testing.T) {
	// Truncated stream.
	g := buildPath(5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, 10, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bad version.
	bad2 := append([]byte(nil), full...)
	bad2[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad version accepted")
	}
	// An empty graph whose one offset is not 0 once passed validation and
	// froze into different bytes.
	var empty bytes.Buffer
	if err := WriteBinary(&empty, buildPath(0)); err != nil {
		t.Fatal(err)
	}
	bad4 := append([]byte(nil), empty.Bytes()...)
	bad4[24+3] = 0x15 // xadj[0] = 0x15 << 24
	if _, err := ReadBinary(bytes.NewReader(bad4)); err == nil {
		t.Fatal("an empty graph with xadj[0] != 0 accepted")
	}
	// Corrupted payload (asymmetric edge) must fail validation.
	bad3 := append([]byte(nil), full...)
	bad3[len(bad3)-1] ^= 0xff // flips a vsize byte -> negative size
	if _, err := ReadBinary(bytes.NewReader(bad3)); err == nil {
		t.Fatal("corrupted payload accepted")
	}
}

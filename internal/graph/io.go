package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// This file implements readers and writers for the two on-disk formats the
// reproduction uses:
//
//   - the METIS .graph format (the format the paper's baselines consume),
//     including the fmt flags for vertex sizes (the 100s digit), vertex
//     weights (the 10s digit) and edge weights (the 1s digit);
//   - a simple whitespace-separated edge-list format ("u v [w]" per line),
//     which is how SNAP distributes the paper's real-world datasets.

// ReadFile reads the graph file at path in the named format: "metis",
// "edgelist" or "binary" — the -format values of the command-line tools.
func ReadFile(path, format string) (*Graph, error) {
	var read func(io.Reader) (*Graph, error)
	switch format {
	case "metis":
		read = ReadMETIS
	case "edgelist":
		read = ReadEdgeList
	case "binary":
		read = ReadBinary
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// WriteMETIS writes g to w in METIS .graph format with vertex sizes,
// vertex weights, and edge weights (fmt code 111).
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "%d %d 111 1\n", n, g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < n; v++ {
		bw.WriteString(strconv.FormatInt(int64(g.VertexSize(v)), 10))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(int64(g.VertexWeight(v)), 10))
		adj := g.Neighbors(v)
		wt := g.EdgeWeights(v)
		for i, u := range adj {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(int64(u)+1, 10)) // 1-based
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(int64(wt[i]), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadMETIS parses a METIS .graph stream. It supports fmt codes 0, 1, 10,
// 11, 100, 110, and 111 and an optional ncon=1 constraint count.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: METIS header needs at least n and m: %q", line)
	}
	n64, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header n: %w", err)
	}
	m64, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header m: %w", err)
	}
	// A negative n would flow into make() inside NewBuilder and panic;
	// reject both counts up front (found by FuzzParseMETIS).
	if n64 < 0 || m64 < 0 {
		return nil, fmt.Errorf("graph: METIS header has negative count: n=%d m=%d", n64, m64)
	}
	var hasVSize, hasVWgt, hasEWgt bool
	if len(fields) >= 3 {
		code := fields[2]
		for len(code) < 3 {
			code = "0" + code
		}
		hasVSize = code[0] == '1'
		hasVWgt = code[1] == '1'
		hasEWgt = code[2] == '1'
	}
	n := int32(n64)
	b := NewBuilder(n)
	for v := int32(0); v < n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: METIS vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVSize {
			s, err := parseI32(toks, i)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d size: %w", v+1, err)
			}
			if s < 0 {
				return nil, fmt.Errorf("graph: vertex %d has negative size %d", v+1, s)
			}
			b.SetVertexSize(v, s)
			i++
		}
		if hasVWgt {
			s, err := parseI32(toks, i)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d weight: %w", v+1, err)
			}
			if s < 0 {
				return nil, fmt.Errorf("graph: vertex %d has negative weight %d", v+1, s)
			}
			b.SetVertexWeight(v, s)
			i++
		}
		for i < len(toks) {
			u, err := parseI32(toks, i)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d neighbor: %w", v+1, err)
			}
			i++
			w := int32(1)
			if hasEWgt {
				w, err = parseI32(toks, i)
				if err != nil {
					return nil, fmt.Errorf("graph: vertex %d edge weight: %w", v+1, err)
				}
				i++
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("graph: vertex %d neighbor %d out of range", v+1, u)
			}
			if w <= 0 {
				return nil, fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, v+1, u)
			}
			if u == v+1 {
				return nil, fmt.Errorf("graph: self-loop on vertex %d", v+1)
			}
			// Each undirected edge appears twice in METIS files; add only
			// the canonical direction to avoid doubling weights.
			if v < u-1 {
				b.AddWeightedEdge(v, u-1, w)
			}
		}
	}
	g := b.Build()
	if g.NumEdges() != m64 {
		return nil, fmt.Errorf("graph: METIS edge count mismatch: header %d, found %d", m64, g.NumEdges())
	}
	return g, nil
}

// WriteEdgeList writes g as "u v w" lines (0-based, one line per
// undirected edge).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "# %d %d\n", n, g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < n; v++ {
		adj := g.Neighbors(v)
		wt := g.EdgeWeights(v)
		for i, u := range adj {
			if v < u {
				fmt.Fprintf(bw, "%d %d %d\n", v, u, wt[i])
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "u v [w]" lines. Lines starting with '#' or '%' are
// comments. Vertex ids may be sparse; they are compacted to a dense range
// and the mapping is discarded (consistent with how the paper's datasets
// are preprocessed). Duplicate edges are merged by summing weights.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	type edge struct {
		u, v int64
		w    int32
	}
	var edges []edge
	remap := make(map[int64]int32)
	next := int32(0)
	id := func(raw int64) int32 {
		if d, ok := remap[raw]; ok {
			return d
		}
		d := next
		remap[raw] = d
		next++
		return d
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		toks := strings.Fields(line)
		if len(toks) < 2 {
			return nil, fmt.Errorf("graph: edge list line %q", line)
		}
		u, err := strconv.ParseInt(toks[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list u: %w", err)
		}
		v, err := strconv.ParseInt(toks[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list v: %w", err)
		}
		w := int32(1)
		if len(toks) >= 3 {
			w64, err := strconv.ParseInt(toks[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: edge list w: %w", err)
			}
			if w64 <= 0 {
				return nil, fmt.Errorf("graph: non-positive edge weight %d on (%d,%d)", w64, u, v)
			}
			w = int32(w64)
		}
		edges = append(edges, edge{u, v, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range edges {
		id(e.u)
		id(e.v)
	}
	b := NewBuilder(next)
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		b.AddWeightedEdge(id(e.u), id(e.v), e.w)
	}
	return b.Build(), nil
}

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

func parseI32(toks []string, i int) (int32, error) {
	if i >= len(toks) {
		return 0, fmt.Errorf("missing field %d", i)
	}
	v, err := strconv.ParseInt(toks[i], 10, 32)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary CSR format: a compact, mmap-friendly on-disk representation for
// the large generated datasets (the text formats get slow past ~10M
// edges). Layout, all little-endian:
//
//	magic   uint32  = 0x50415247 ("PARG")
//	version uint32  = 1
//	n       int64   vertex count
//	m       int64   half-edge count
//	xadj    [n+1]int64
//	adj     [m]int32
//	ewgt    [m]int32
//	vwgt    [n]int32
//	vsize   [n]int32

const (
	binaryMagic   = 0x50415247
	binaryVersion = 1
)

// WriteBinary writes g in binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []interface{}{
		uint32(binaryMagic), uint32(binaryVersion),
		int64(g.NumVertices()), g.NumHalfEdges(),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("graph: binary header: %w", err)
		}
	}
	for _, arr := range []interface{}{g.xadj, g.adj, g.ewgt, g.vwgt, g.vsize} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return fmt.Errorf("graph: binary body: %w", err)
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary CSR format and validates the result.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version uint32
	var n, m int64
	for _, v := range []interface{}{&magic, &version, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	if n < 0 || m < 0 || n > 1<<31-2 {
		return nil, fmt.Errorf("graph: implausible binary sizes n=%d m=%d", n, m)
	}
	// Sizes come from an untrusted header: read incrementally so a lying
	// header fails with ErrUnexpectedEOF instead of exhausting memory.
	xadj, err := readI64Slice(br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: binary xadj: %w", err)
	}
	adj, err := readI32Slice(br, m)
	if err != nil {
		return nil, fmt.Errorf("graph: binary adj: %w", err)
	}
	ewgt, err := readI32Slice(br, m)
	if err != nil {
		return nil, fmt.Errorf("graph: binary ewgt: %w", err)
	}
	vwgt, err := readI32Slice(br, n)
	if err != nil {
		return nil, fmt.Errorf("graph: binary vwgt: %w", err)
	}
	vsize, err := readI32Slice(br, n)
	if err != nil {
		return nil, fmt.Errorf("graph: binary vsize: %w", err)
	}
	g := &Graph{xadj: xadj, adj: adj, ewgt: ewgt, vwgt: vwgt, vsize: vsize,
		ewTotal: sum64(ewgt) / 2, vwTotal: sum64(vwgt), vsTotal: sum64(vsize)}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload: %w", err)
	}
	return g, nil
}

// readChunk bounds each allocation step so untrusted headers cannot force
// a huge up-front allocation.
const readChunk = 1 << 20

func readI32Slice(r io.Reader, count int64) ([]int32, error) {
	out := make([]int32, 0, min64(count, readChunk))
	for int64(len(out)) < count {
		step := min64(count-int64(len(out)), readChunk)
		buf := make([]int32, step)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func readI64Slice(r io.Reader, count int64) ([]int64, error) {
	out := make([]int64, 0, min64(count, readChunk))
	for int64(len(out)) < count {
		step := min64(count-int64(len(out)), readChunk)
		buf := make([]int64, step)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

package exp

import (
	"paragon/internal/gen"
	"paragon/internal/partition"
	"paragon/internal/stream"
)

// The extension study beyond the paper's own tables: the §7.1 remark on
// stream arrival order, measured.

// StreamOrderStudy quantifies the §7.1 remark that streaming quality
// depends on arrival order: DG and LDG cut quality across the four
// stream orders, plus Fennel as an additional baseline.
func StreamOrderStudy(scale float64) *Table {
	env := microEnv()
	c := env.PlainMatrix()
	d, err := gen.DatasetByName("YouTube")
	if err != nil {
		panic(err)
	}
	g := d.Build(scale)
	g.UseDegreeWeights()
	k := int32(env.K)
	tab := &Table{
		ID:     "streamorder",
		Title:  "Streaming partitioner quality vs arrival order (YouTube stand-in)",
		Header: []string{"partitioner", "order", "comm_cost", "skew"},
		Notes:  "the paper observed DG beating LDG under its natural replay order",
	}
	for _, ord := range []stream.Order{stream.OrderNatural, stream.OrderRandom, stream.OrderBFS, stream.OrderDFS} {
		opts := stream.Options{Eps: 0.02, Order: ord, Seed: 7}
		for _, pr := range []struct {
			name string
			run  func() *partition.Partitioning
		}{
			{"DG", func() *partition.Partitioning { return stream.DG(g, k, opts) }},
			{"LDG", func() *partition.Partitioning { return stream.LDG(g, k, opts) }},
			{"Fennel", func() *partition.Partitioning { return stream.Fennel(g, k, opts) }},
		} {
			p := pr.run()
			tab.Rows = append(tab.Rows, []string{
				pr.name, ord.String(),
				f0(partition.CommCost(g, p, c, env.Alpha)),
				f2(partition.Skewness(g, p)),
			})
		}
	}
	return tab
}

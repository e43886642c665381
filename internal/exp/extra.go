package exp

import (
	"fmt"
	"strings"

	"paragon/internal/gen"
	"paragon/internal/paragon"
	"paragon/internal/partition"
	"paragon/internal/stream"
	"paragon/internal/topology"
)

// Extras: Table 1 (contention matrix), the §6 λ profiling sweep, and the
// ablation studies DESIGN.md calls out.

// Table1 reproduces the paper's Table 1: which shared resources core
// pairs contend for, per architecture and core group.
func Table1() *Table {
	tab := &Table{
		ID:     "table1",
		Title:  "Intra-node shared resource contention (Figure 2 architectures)",
		Header: []string{"arch", "group", "example pair", "contended resources"},
	}
	uma := topology.UMACluster(1)
	numa := topology.PittCluster(1)
	rows := []struct {
		arch  string
		group string
		cl    *topology.Cluster
		a, b  int
	}{
		{"UMA", "G1 (same socket, shared L2)", uma, 0, 1},
		{"UMA", "G2 (same socket)", uma, 0, 2},
		{"UMA", "G3 (different sockets)", uma, 0, 4},
		{"NUMA", "G1 (same socket)", numa, 0, 1},
		{"NUMA", "G2 (different sockets)", numa, 0, 10},
	}
	for _, r := range rows {
		res := r.cl.ContendedResources(r.a, r.b)
		names := make([]string, len(res))
		for i, x := range res {
			names[i] = x.String()
		}
		tab.Rows = append(tab.Rows, []string{
			r.arch, r.group, fmt.Sprintf("cores %d,%d", r.a, r.b), strings.Join(names, ", "),
		})
	}
	return tab
}

// LambdaSweep reproduces the §6/§7.2 profiling experiment: BFS JET on
// the YouTube stand-in as λ grows from 0 to 1, on both clusters. The
// paper found the optimum at λ=1 on PittMPICluster (intra-node bound)
// and λ=0 on Gordon (network bound).
func LambdaSweep(scale float64, nSources int) *Table {
	tab := &Table{
		ID:     "lambda",
		Title:  "BFS JET vs contention degree λ (YouTube stand-in)",
		Header: []string{"cluster", "lambda", "JET"},
		Notes:  "paper: λ=1 best on PittMPICluster, λ=0 best on Gordon",
	}
	d, err := gen.DatasetByName("YouTube")
	if err != nil {
		panic(err)
	}
	g := d.Build(scale)
	g.UseDegreeWeights()
	for _, base := range []Env{PittEnv(3), GordonEnv(3)} {
		dg := stream.DG(g, int32(base.K), stream.DefaultOptions())
		srcs := sources(g.NumVertices(), nSources, 99)
		for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			env := base
			env.Lambda = lambda
			p := dg.Clone()
			RefineParagon(g, p, env, 8, 8, 42)
			jet, _ := runJob(appBFS, g, p, env, 8, srcs)
			tab.Rows = append(tab.Rows, []string{env.Name, fmt.Sprintf("%.2f", lambda), f0(jet)})
		}
	}
	return tab
}

// AblationKHop studies the §5 communication-volume knob: shipped volume
// and resulting quality as the boundary expansion radius k grows.
func AblationKHop(scale float64) *Table {
	env := microEnv()
	g := comLJ(scale)
	c := env.PlainMatrix()
	initial := stream.DG(g, int32(env.K), stream.DefaultOptions())
	base := partition.CommCost(g, initial, c, env.Alpha)
	tab := &Table{
		ID:     "ablation-khop",
		Title:  "k-hop boundary shipping: volume vs quality (com-lj)",
		Header: []string{"k", "shipped_vertices", "shipped_halfedges", "norm_comm", "refinement_time"},
		Notes:  "paper: quality is insensitive to k, so k=0 is the default",
	}
	for _, k := range []int{0, 1, 2} {
		p := initial.Clone()
		cfg := paragonCfg(env, 8, 4, 42)
		cfg.KHop = k
		st := refineWith(g, p, env, cfg)
		cost := partition.CommCost(g, p, c, env.Alpha)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprint(st.BoundaryShipped),
			fmt.Sprint(st.ShippedEdgeVolume),
			f2(cost / base),
			secs(st.RefinementTime),
		})
	}
	return tab
}

// AblationServerPenalty isolates Eq. 10's group-server concentration
// penalty on the scenario it exists for: a cluster where one compute
// node is the cheapest destination for every group (a "hot" node, e.g.
// the one adjacent to most switches). Without the (1+σ/drp) term every
// group server lands on that node — the memory-exhaustion risk §5 calls
// out; with it, servers spill to other nodes once the hot node fills.
func AblationServerPenalty(scale float64) *Table {
	_ = scale // the scenario is synthetic; size-independent
	const k = 16
	const drp = 8
	const serversPerNode = 4
	// Cost matrix: servers 0..3 live on the hot node 0 (cheap to reach
	// from everywhere, cost 1); all other pairs cost 4.
	nodeOf := make([]int, k)
	for s := range nodeOf {
		nodeOf[s] = s / serversPerNode
	}
	c := make([][]float64, k)
	for i := range c {
		c[i] = make([]float64, k)
		for j := range c[i] {
			switch {
			case i == j:
			case nodeOf[j] == 0 || nodeOf[i] == 0:
				c[i][j] = 1
			default:
				c[i][j] = 4
			}
		}
	}
	cs, err := partition.CheckCosts(c, k)
	if err != nil {
		panic(err)
	}
	ps := make([]int64, k)
	for i := range ps {
		ps[i] = 1000
	}
	groups := make([][]int32, drp)
	for i := int32(0); i < k; i++ {
		groups[i%drp] = append(groups[i%drp], i)
	}
	tab := &Table{
		ID:     "ablation-penalty",
		Title:  "Group-server concentration on a hot node, with and without the Eq. 10 penalty",
		Header: []string{"variant", "servers_on_hot_node", "distinct_nodes"},
		Notes:  "the (1+σ/drp) term exists to avoid memory exhaustion on one node",
	}
	measure := func(useNodes bool) (hot, distinct int) {
		no := nodeOf
		if !useNodes {
			no = nil
		}
		servers := paragon.SelectGroupServers(groups, ps, cs, no, drp)
		nodes := map[int]bool{}
		for _, s := range servers {
			if nodeOf[s] == 0 {
				hot++
			}
			nodes[nodeOf[s]] = true
		}
		return hot, len(nodes)
	}
	h, d := measure(true)
	tab.Rows = append(tab.Rows, []string{"with penalty (NodeOf set)", fmt.Sprint(h), fmt.Sprint(d)})
	h, d = measure(false)
	tab.Rows = append(tab.Rows, []string{"without node awareness", fmt.Sprint(h), fmt.Sprint(d)})
	return tab
}

// AblationUniformCost quantifies what architecture-awareness buys: the
// comm cost (on the real matrix) of PARAGON vs UNIPARAGON refinement.
func AblationUniformCost(scale float64) *Table {
	env := microEnv()
	g := comLJ(scale)
	c := env.PlainMatrix()
	initial := stream.DG(g, int32(env.K), stream.DefaultOptions())
	base := partition.CommCost(g, initial, c, env.Alpha)
	tab := &Table{
		ID:     "ablation-uniform",
		Title:  "Architecture-aware vs uniform-cost refinement (comm cost on the real matrix)",
		Header: []string{"variant", "norm_comm"},
	}
	pa := initial.Clone()
	RefineParagon(g, pa, env, 8, 8, 42)
	pu := initial.Clone()
	RefineUniParagon(g, pu, env, 8, 8, 42)
	tab.Rows = append(tab.Rows, []string{"PARAGON", f2(partition.CommCost(g, pa, c, env.Alpha) / base)})
	tab.Rows = append(tab.Rows, []string{"UNIPARAGON", f2(partition.CommCost(g, pu, c, env.Alpha) / base)})
	tab.Rows = append(tab.Rows, []string{"initial (DG)", "1.00"})
	return tab
}

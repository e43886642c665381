package exp

import (
	"strconv"
	"strings"
	"testing"
)

// The exp tests run every experiment at a tiny scale: they verify the
// harness plumbing and, where cheap, the paper's qualitative shapes.

const tiny = 0.03

// App-level experiments need enough vertices per partition for placement
// to matter (k is 48-60 there); they run at a larger scale.
const appScale = 0.12

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.Fields(s)[0], "%")
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparsable cell %q: %v", s, err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: "n"}
	s := tab.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestEnvs(t *testing.T) {
	p := PittEnv(2)
	if p.K != 40 || p.Lambda != 1.0 {
		t.Fatalf("PittEnv: %+v", p)
	}
	g := GordonEnv(3)
	if g.K != 48 || g.Lambda != 0.0 {
		t.Fatalf("GordonEnv: %+v", g)
	}
	if len(p.Matrix()) != 40 || len(g.PlainMatrix()) != 48 {
		t.Fatal("matrix sizes wrong")
	}
	if len(p.NodeOf()) != 40 {
		t.Fatal("NodeOf size wrong")
	}
	// λ=1 must make Pitt's intra-node entries exceed the plain ones.
	mm, pm := p.Matrix(), p.PlainMatrix()
	if mm[0][1] <= pm[0][1] {
		t.Fatal("contention penalty missing from Matrix()")
	}
}

func TestFig7Shapes(t *testing.T) {
	timeTab, costTab := Fig7(tiny)
	if len(timeTab.Rows) != 11 || len(costTab.Rows) != 11 {
		t.Fatalf("row counts: %d %d", len(timeTab.Rows), len(costTab.Rows))
	}
	// Fig 7b claim: every refined decomposition beats the initial one.
	for _, row := range costTab.Rows {
		if v := parseF(t, row[1]); v >= 1.0 {
			t.Fatalf("drp=%s comm ratio %v >= 1.0 — refinement failed to improve", row[0], v)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	tab := Fig8(tiny)
	if len(tab.Rows) != 17 { // ARAGON + shuffles 0..15
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "ARAGON" {
		t.Fatalf("first row should be ARAGON: %v", tab.Rows[0])
	}
	// More shuffles must not hurt quality dramatically; by 15 rounds the
	// ratio should be close to or below ARAGON (paper: below at >= 11).
	last := parseF(t, tab.Rows[len(tab.Rows)-1][2])
	first := parseF(t, tab.Rows[1][2])
	if last > first+1e-9 {
		t.Fatalf("quality got worse with shuffles: %v -> %v", first, last)
	}
}

func TestFig9to11Shapes(t *testing.T) {
	tabs := Fig9to11(tiny)
	if len(tabs) != 5 {
		t.Fatalf("tables = %d, want 5", len(tabs))
	}
	fig9, fig10a, fig10b := tabs[0], tabs[1], tabs[2]
	if len(fig9.Rows) != 12 {
		t.Fatalf("fig9 rows = %d, want 12 datasets", len(fig9.Rows))
	}
	// Headline claims at tiny scale: HP is the worst initial partitioner
	// on average; refinement never increases cost.
	var hpSum, metisSum float64
	for i, row := range fig9.Rows {
		hp := parseF(t, row[1])
		dg := parseF(t, row[2])
		metis := parseF(t, row[4])
		hpSum += hp
		metisSum += metis
		after := parseF(t, fig10a.Rows[i][1])
		if after > hp+1e-9 {
			t.Fatalf("dataset %s: PARAGON+HP worsened cost: %v -> %v", row[0], hp, after)
		}
		_ = dg
	}
	if metisSum >= hpSum {
		t.Fatalf("METIS total %v not below HP total %v", metisSum, hpSum)
	}
	// Improvement percentages are within [0, 100].
	for _, row := range fig10b.Rows {
		for _, cell := range row[1:] {
			v := parseF(t, cell)
			if v < -1 || v > 100 {
				t.Fatalf("improvement %v out of range", v)
			}
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	tab := Table4(appScale, 2)
	// Pitt: 5 algorithms, Gordon: 3.
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	jet := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0]
		if jet[key] == nil {
			jet[key] = map[string]float64{}
		}
		jet[key][row[1]] = parseF(t, row[2]) // YouTube column
	}
	for cluster, m := range jet {
		if m["PARAGON"] >= m["DG"] {
			t.Fatalf("%s: PARAGON JET %v not below DG %v", cluster, m["PARAGON"], m["DG"])
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	tab := Table5(appScale, 1)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig12and13Shapes(t *testing.T) {
	f12 := Fig12(appScale, 1)
	if len(f12.Rows) != 15 { // 3 datasets × 5 algorithms
		t.Fatalf("fig12 rows = %d", len(f12.Rows))
	}
	f13 := Fig13(appScale, 1)
	if len(f13.Rows) != 9 { // 3 datasets × 3 algorithms
		t.Fatalf("fig13 rows = %d", len(f13.Rows))
	}
	// On Gordon (λ=0), PARAGON's inter-node volume must not exceed DG's.
	vols := map[string]float64{}
	for _, row := range f13.Rows {
		if row[0] == "YouTube" {
			vols[row[1]] = parseF(t, row[4])
		}
	}
	if vols["PARAGON"] > vols["DG"] {
		t.Fatalf("PARAGON inter-node volume %v above DG %v on Gordon", vols["PARAGON"], vols["DG"])
	}
}

func TestFig14Shapes(t *testing.T) {
	tab := Fig14(appScale, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 algorithms", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 6 {
			t.Fatalf("row %v should have 5 snapshot columns", row)
		}
	}
	// At S5 PARAGON must beat plain DG.
	var dg5, par5 float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "DG":
			dg5 = parseF(t, row[5])
		case "PARAGON":
			par5 = parseF(t, row[5])
		}
	}
	if par5 >= dg5 {
		t.Fatalf("at S5, PARAGON JET %v not below DG %v", par5, dg5)
	}
}

func TestFig15and16Shapes(t *testing.T) {
	jetTab, refTab := Fig15and16(appScale, 1)
	if len(jetTab.Rows) != 4 || len(refTab.Rows) != 4 {
		t.Fatalf("rows: %d %d", len(jetTab.Rows), len(refTab.Rows))
	}
	// Edge counts must grow along the series, and PARAGON must beat DG
	// at the largest scale.
	prevEdges := -1.0
	for _, row := range jetTab.Rows {
		e := parseF(t, row[1])
		if e <= prevEdges {
			t.Fatalf("series not growing: %v", jetTab.Rows)
		}
		prevEdges = e
	}
	last := jetTab.Rows[len(jetTab.Rows)-1]
	if parseF(t, last[3]) >= parseF(t, last[2]) {
		t.Fatalf("PARAGON JET %s not below DG %s at full scale", last[3], last[2])
	}
}

func TestTable1Content(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 core groups", len(tab.Rows))
	}
	// UMA G1 contends for everything; NUMA G2 only the link.
	if !strings.Contains(tab.Rows[0][3], "memory controller") {
		t.Fatalf("UMA G1 resources: %q", tab.Rows[0][3])
	}
	if tab.Rows[4][3] != "FSB/QPI(HT)" {
		t.Fatalf("NUMA G2 resources: %q", tab.Rows[4][3])
	}
}

func TestLambdaSweepShape(t *testing.T) {
	tab := LambdaSweep(appScale, 1)
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 2 clusters × 5 λ", len(tab.Rows))
	}
}

func TestAblations(t *testing.T) {
	k := AblationKHop(tiny)
	if len(k.Rows) != 3 {
		t.Fatalf("khop rows = %d", len(k.Rows))
	}
	// Shipped volume must grow with k.
	if parseF(t, k.Rows[1][1]) <= parseF(t, k.Rows[0][1]) {
		t.Fatalf("k=1 did not ship more than k=0: %v", k.Rows)
	}
	p := AblationServerPenalty(tiny)
	if len(p.Rows) != 2 {
		t.Fatalf("penalty rows = %d", len(p.Rows))
	}
	// The penalty must strictly reduce hot-node concentration.
	if parseF(t, p.Rows[0][1]) >= parseF(t, p.Rows[1][1]) {
		t.Fatalf("penalty did not reduce hot-node servers: %v vs %v", p.Rows[0][1], p.Rows[1][1])
	}
	u := AblationUniformCost(tiny)
	if len(u.Rows) != 3 {
		t.Fatalf("uniform rows = %d", len(u.Rows))
	}
	// PARAGON must beat UNIPARAGON on the real matrix.
	if parseF(t, u.Rows[0][1]) >= parseF(t, u.Rows[1][1]) {
		t.Fatalf("PARAGON %s not below UNIPARAGON %s", u.Rows[0][1], u.Rows[1][1])
	}
}

func TestStreamOrderStudy(t *testing.T) {
	so := StreamOrderStudy(tiny)
	if len(so.Rows) != 12 { // 4 orders × 3 partitioners
		t.Fatalf("streamorder rows = %d", len(so.Rows))
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows: [][]string{{"1", `va"l,ue`}}}
	got := tab.CSV()
	want := "# x: T\na,b\n1,\"va\"\"l,ue\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestManifest(t *testing.T) {
	m := Manifest()
	if len(m) != 13 {
		t.Fatalf("manifest has %d entries", len(m))
	}
	seen := map[string]bool{}
	for _, e := range m {
		if e.ID == "" || e.What == "" || e.Paper == "" {
			t.Fatalf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

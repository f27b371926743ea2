package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment runners double as integration tests: each must execute
// end to end at reduced sizes and produce a well-formed table.

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func checkTable(t *testing.T, tbl *Table, err error, wantRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want ≥ %d", tbl.ID, len(tbl.Rows), wantRows)
	}
	for _, r := range tbl.Rows {
		if len(r) != len(tbl.Header) {
			t.Fatalf("%s: row width %d != header width %d", tbl.ID, len(r), len(tbl.Header))
		}
	}
	out := tbl.Format()
	if !strings.Contains(out, tbl.ID) {
		t.Errorf("%s: Format lost the id", tbl.ID)
	}
}

func TestWidthTable(t *testing.T) {
	tbl, err := WidthTable()
	checkTable(t, tbl, err, 15)
	trees := 0
	for _, row := range tbl.Rows {
		// Pin the paper's values inside the rendered rows.
		switch {
		case strings.HasPrefix(row[0], "H1"), strings.HasPrefix(row[0], "H2"):
			if row[1] != "1" {
				t.Errorf("y(%s) rendered as %s, want 1", row[0], row[1])
			}
		case strings.HasPrefix(row[0], "H3"):
			if row[1] != "2" || row[3] != "5" {
				t.Errorf("H3 rendered y=%s n2=%s, want 2, 5", row[1], row[3])
			}
		case strings.HasPrefix(row[0], "random tree"):
			trees++
		}
		// The exact search keeps Construction 2.8's GHD unless it finds a
		// smaller one, so y(H) never exceeds the heuristic's count.
		if atoi(t, row[1]) > atoi(t, row[2]) {
			t.Errorf("%s: exact y = %s above Construction 2.8's %s", row[0], row[1], row[2])
		}
	}
	if trees != 8 {
		t.Errorf("%d random-tree rows, want 8", trees)
	}
}

func TestExamplesTableSmall(t *testing.T) {
	for _, n := range []int{32, 128} {
		tbl, err := ExamplesTable(n)
		checkTable(t, tbl, err, 6)
		// Example 2.1 lands exactly on the paper's N+2. Examples 2.2 and
		// 2.3 measure N+4 and N/2+3 against the paper's N+2 and N/2+2
		// (36 and 19 at N=32), and the star with k relations on the
		// k-line measures N+2k-3 against Corollary 4.3's N+k. ROADMAP
		// item 17 owns these gaps; the pins make a change to them visible.
		want := []int{n + 2, n + 4, n/2 + 3, n + 5, n + 13, n + 29}
		// Store-and-forward costs N rounds per hop of the deepest path to
		// the output player.
		wantSAF := []string{itoa(3 * n), itoa(2 * n), "-", itoa(3 * n), itoa(7 * n), itoa(15 * n)}
		for i, row := range tbl.Rows {
			if got := atoi(t, row[3]); got != want[i] {
				t.Errorf("N=%d %s: measured %d rounds, want %d", n, row[0], got, want[i])
			}
			if row[4] != wantSAF[i] {
				t.Errorf("N=%d %s: store-and-forward %s rounds, want %s", n, row[0], row[4], wantSAF[i])
			}
		}
	}
}

func TestExample24TableSmall(t *testing.T) {
	tbl, err := Example24Table(32)
	checkTable(t, tbl, err, 6)
	for _, row := range tbl.Rows {
		if row[0] == "equivalent" && row[1] != "true" {
			t.Error("embedding equivalence failed in Example 2.4 table")
		}
	}
}

func TestTable1Small(t *testing.T) {
	tbl, err := Table1(32)
	checkTable(t, tbl, err, 6)
	if tbl.Rows[1][0] != "1 FAQ-SS/L" {
		t.Errorf("row 2 is %q, want the sum-product FAQ row", tbl.Rows[1][0])
	}
}

func TestSetIntersectionTableSmall(t *testing.T) {
	for _, n := range []int{32, 128} {
		tbl, err := SetIntersectionTable(n)
		checkTable(t, tbl, err, 7)
		for _, row := range tbl.Rows {
			minCut, st, bound, measured := atoi(t, row[2]), atoi(t, row[3]), atoi(t, row[5]), atoi(t, row[6])
			if measured > bound {
				t.Errorf("N=%d %s: %d rounds above Theorem 3.11's N/ST+Δ = %d", n, row[0], measured, bound)
			}
			if st < minCut/2 {
				t.Errorf("N=%d %s: ST = %d below ⌊MinCut/2⌋ = %d", n, row[0], st, minCut/2)
			}
		}
	}
}

func TestTauMCFTableSmall(t *testing.T) {
	tbl, err := TauMCFTable(64)
	checkTable(t, tbl, err, 4)
}

func TestMCMTable(t *testing.T) {
	tbl, err := MCMTable()
	checkTable(t, tbl, err, 7)
	// The winner column must flip from sequential to merge as k grows
	// past N (Appendix I.1).
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if first[len(first)-1] != "sequential" {
		t.Errorf("small-k winner = %s, want sequential", first[len(first)-1])
	}
	if last[len(last)-1] != "merge" {
		t.Errorf("large-k winner = %s, want merge", last[len(last)-1])
	}
}

func TestEntropyTableSmall(t *testing.T) {
	tbl, err := EntropyTable(20000)
	checkTable(t, tbl, err, 5)
}

func TestShannonTable(t *testing.T) {
	tbl, err := ShannonTable()
	checkTable(t, tbl, err, 4)
}

func TestMPCTableSmall(t *testing.T) {
	tbl, err := MPCTable(32)
	checkTable(t, tbl, err, 7)
}

func TestPGMTableSmall(t *testing.T) {
	tbl, err := PGMTable()
	checkTable(t, tbl, err, 3)
	for _, row := range tbl.Rows {
		if row[2] != "true" {
			t.Errorf("%s: distributed marginal mismatch", row[0])
		}
	}
}

func TestRunByID(t *testing.T) {
	tbl, err := Run("widths")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "fig1-fig2-widths" {
		t.Errorf("Run(widths) rendered %s", tbl.ID)
	}
	_, err = Run("nope")
	if err == nil || !strings.Contains(err.Error(), "widths, table1, examples, example24, setint, taumcf, mcm, entropy, shannon, mpc, pgm") {
		t.Errorf("Run(nope) = %v, want an error listing the catalogue", err)
	}
}

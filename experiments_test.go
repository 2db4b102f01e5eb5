package misp

import (
	"encoding/csv"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsMatchResults holds EXPERIMENTS.md's measured tables to
// the committed results/ CSVs, so the prose cannot drift from the
// numbers again: every cell of the Figure 4, Table 1 and Figure 7
// tables must equal its CSV cell (same row key, same column header) at
// the precision the markdown prints.
func TestExperimentsMatchResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ heading, csv string }{
		{"## Figure 4", "results/fig4.csv"},
		{"## Table 1", "results/table1.csv"},
		{"## Figure 7", "results/fig7.csv"},
	} {
		t.Run(tc.csv, func(t *testing.T) {
			md := markdownTable(t, string(doc), tc.heading)
			recs := readCSV(t, tc.csv)
			col := map[string]int{}
			for i, h := range recs[0] {
				col[h] = i
			}
			row := map[string][]string{}
			for _, r := range recs[1:] {
				row[r[0]] = r
			}
			for _, m := range md[1:] {
				want, ok := row[m[0]]
				if !ok {
					t.Errorf("row %q is not in %s", m[0], tc.csv)
					continue
				}
				for j := 1; j < len(m); j++ {
					ci, ok := col[md[0][j]]
					if !ok {
						t.Fatalf("column %q is not in %s", md[0][j], tc.csv)
					}
					if got := atPrecision(t, want[ci], m[j]); got != m[j] {
						t.Errorf("%s / %s: EXPERIMENTS.md says %s, %s has %s", m[0], md[0][j], m[j], tc.csv, want[ci])
					}
				}
			}
		})
	}
}

// TestFigure5Summary holds EXPERIMENTS.md's Figure 5 summary table to
// results/fig5.csv, whose columns are the signal costs: in each row,
// "average overhead" is the CSV's average row and "worst case" is the
// column's largest application value followed by that application's
// name, e.g. "1.9% (ADAt)", both at the printed precision.
func TestFigure5Summary(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	md := markdownTable(t, string(doc), "## Figure 5")
	avgCol, worstCol := slices.Index(md[0], "average overhead"), slices.Index(md[0], "worst case")
	if avgCol < 0 || worstCol < 0 {
		t.Fatalf("Figure 5 table header %q lacks average overhead or worst case", md[0])
	}
	recs := readCSV(t, "results/fig5.csv")
	for _, m := range md[1:] {
		ci := slices.Index(recs[0], m[0])
		if ci < 0 {
			t.Errorf("signal %q is not a column of results/fig5.csv", m[0])
			continue
		}
		var avg, worst, worstApp string
		worstV := math.Inf(-1)
		for _, r := range recs[1:] {
			if r[0] == "average" {
				avg = r[ci]
				continue
			}
			if v := percent(t, r[ci]); v > worstV {
				worstV, worst, worstApp = v, r[ci], r[0]
			}
		}
		if got := atPrecision(t, strings.TrimSuffix(avg, "%"), strings.TrimSuffix(m[avgCol], "%")) + "%"; got != m[avgCol] {
			t.Errorf("signal %s: EXPERIMENTS.md says average %s, results/fig5.csv has %s", m[0], m[avgCol], avg)
		}
		printed, _, _ := strings.Cut(m[worstCol], " ")
		if got := atPrecision(t, strings.TrimSuffix(worst, "%"), strings.TrimSuffix(printed, "%")) + "% (" + worstApp + ")"; got != m[worstCol] {
			t.Errorf("signal %s: EXPERIMENTS.md says worst case %s, results/fig5.csv has %s (%s)", m[0], m[worstCol], worst, worstApp)
		}
	}
}

// readCSV returns every record of the CSV file at path, header first.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// percent parses a CSV cell such as "1.948%".
func percent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("%q: %v", cell, err)
	}
	return v
}

// markdownTable returns the cells of the first table after the line
// starting with heading, header row first, without the separator row
// and with bold markers removed.
func markdownTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	start := strings.Index(doc, "\n"+heading)
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(doc[start:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows != nil {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("no table under %q", heading)
	}
	return rows
}

// atPrecision renders the CSV value v with as many decimals as the
// printed cell has; a cell without a decimal point compares verbatim.
func atPrecision(t *testing.T, v, printed string) string {
	t.Helper()
	dot := strings.IndexByte(printed, '.')
	if dot < 0 {
		return v
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("%q: %v", v, err)
	}
	return strconv.FormatFloat(f, 'f', len(printed)-dot-1, 64)
}

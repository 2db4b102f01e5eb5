//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, the one place they are fixed.
func bounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatSets runs n full untraced sets back to back and reports, per
// workload and end-to-end metric, median, min, max and (max − min) ÷
// median beside the metric's bound. It returns non-zero when a spread
// exceeds its bound: the benchmark cannot resolve a regression of that
// size on this host.
func repeatSets(ctx context.Context, cfg *config, selected []workload, n int) int {
	bound, err := bounds(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg.trace = false
	vals := make(map[string]map[string][]float64) // workload → metric → one value per set
	code := 0
	for set := 0; set < n; set++ {
		for _, w := range selected {
			res, err := runWorkload(ctx, cfg, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("set %d %s: %d of %d ops failed: %v\n", set+1, w.name, res.Failed, res.Attempted, res.Errors)
				code = 1
			}
			if vals[w.name] == nil {
				vals[w.name] = make(map[string][]float64)
			}
			for name, m := range res.EndToEnd {
				vals[w.name][name] = append(vals[w.name][name], m.Value)
			}
		}
	}
	fmt.Printf("%d sets, seed %d, %gs windows\n", n, cfg.seed, cfg.seconds)
	fmt.Printf("%-12s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for _, w := range selected {
		for _, name := range endToEnd {
			s := append([]float64(nil), vals[w.name][name]...)
			sort.Float64s(s)
			med := quantile(s, 0.5)
			spread := (s[len(s)-1] - s[0]) / med
			flag := ""
			if spread > bound[name] {
				flag, code = "  OVER", 1
			}
			fmt.Printf("%-12s %-18s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s\n",
				w.name, name, med, s[0], s[len(s)-1], 100*spread, 100*bound[name], flag)
		}
	}
	return code
}

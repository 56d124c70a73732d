package experiments

import (
	"fmt"
	"sort"
	"strings"

	"chef/internal/chef"
	"chef/internal/dedicated"
	"chef/internal/interp"
	"chef/internal/minipy"
	"chef/internal/packages"
	"chef/internal/symexpr"
)

// Fig8Row is one package's test-generation results across the four
// configurations, as ratios over the baseline (the paper plots P/P_baseline
// on a log scale).
type Fig8Row struct {
	Package string
	Lang    string
	Tests   [4]Aggregated // raw test counts, config order of FourConfigurations
	Ratio   [4]float64    // relative to baseline
}

// Fig8 reproduces Figure 8: the number of high-level test cases generated
// under each configuration, relative to the random-selection baseline. The
// full package x configuration x repetition grid fans out over the worker
// pool; aggregation walks the gathered results in grid order, so the rows
// are identical to a serial run.
func Fig8(b Budgets) []Fig8Row {
	configs := FourConfigurations(true)
	pkgs := packages.All()
	var cells []cell
	for _, p := range pkgs {
		for _, cfg := range configs {
			cells = append(cells, repCells(p, cfg, b)...)
		}
	}
	results := runCells(b, cells)
	var rows []Fig8Row
	idx := 0
	for _, p := range pkgs {
		row := Fig8Row{Package: p.Name, Lang: p.Lang.String()}
		for ci := range configs {
			t, _, _ := aggregate(results[idx : idx+b.Reps])
			idx += b.Reps
			row.Tests[ci] = t
		}
		base := row.Tests[0].Mean
		if base < 1 {
			base = 1
		}
		for ci := range configs {
			row.Ratio[ci] = row.Tests[ci].Mean / base
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFig8 renders Figure 8 as a text table.
func RenderFig8(rows []Fig8Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: High-level test cases generated, relative to baseline (path-optimized CUPA)\n")
	configs := FourConfigurations(true)
	fmt.Fprintf(&sb, "%-14s %-7s", "Package", "Lang")
	for _, c := range configs {
		fmt.Fprintf(&sb, " %22s", c.Name)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-7s", r.Package, r.Lang)
		for ci := range configs {
			fmt.Fprintf(&sb, "   %7.1f (%5.2fx base)", r.Tests[ci].Mean, r.Ratio[ci])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig9Row is one package's line coverage across the four configurations.
type Fig9Row struct {
	Package  string
	Lang     string
	Coverage [4]Aggregated // fraction in [0,1]
}

// Fig9 reproduces Figure 9: line coverage achieved by each configuration
// with the coverage-optimized CUPA. Like Fig8, the whole grid runs on the
// worker pool with order-preserving aggregation.
func Fig9(b Budgets) []Fig9Row {
	configs := FourConfigurations(false)
	pkgs := packages.All()
	var cells []cell
	for _, p := range pkgs {
		for _, cfg := range configs {
			cells = append(cells, repCells(p, cfg, b)...)
		}
	}
	results := runCells(b, cells)
	var rows []Fig9Row
	idx := 0
	for _, p := range pkgs {
		row := Fig9Row{Package: p.Name, Lang: p.Lang.String()}
		for ci := range configs {
			_, c, _ := aggregate(results[idx : idx+b.Reps])
			idx += b.Reps
			row.Coverage[ci] = c
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFig9 renders Figure 9.
func RenderFig9(rows []Fig9Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: Line coverage [%] (coverage-optimized CUPA)\n")
	configs := FourConfigurations(false)
	fmt.Fprintf(&sb, "%-14s %-7s", "Package", "Lang")
	for _, c := range configs {
		fmt.Fprintf(&sb, " %22s", c.Name)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-7s", r.Package, r.Lang)
		for ci := range configs {
			fmt.Fprintf(&sb, "       %5.1f%% (+/-%4.1f)", 100*r.Coverage[ci].Mean, 100*r.Coverage[ci].Std)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig10Series is the averaged high-level/low-level path ratio over virtual
// time for one configuration.
type Fig10Series struct {
	Config string
	Lang   string
	// Points are (fraction of budget, ratio) pairs at fixed fractions.
	Points []float64 // ratio at each decile of the budget
}

// Fig10 reproduces Figure 10: the fraction of low-level paths that
// contribute new high-level paths, over time, averaged across the packages
// of each language.
func Fig10(b Budgets) []Fig10Series {
	configs := FourConfigurations(true)
	// Flatten the (language, configuration, package) grid into cells, run
	// them on the pool, and walk the results in the same nesting order.
	var cells []cell
	for _, l := range packages.Langs {
		for _, cfg := range configs {
			for _, p := range packages.ByLang(l) {
				cells = append(cells, cell{p: p, cfg: cfg, seed: b.Seed})
			}
		}
	}
	results := runCells(b, cells)
	var out []Fig10Series
	idx := 0
	for _, l := range packages.Langs {
		langPkgs := packages.ByLang(l)
		lang := l.String()
		for _, cfg := range configs {
			deciles := make([]float64, 10)
			counts := make([]int, 10)
			for range langPkgs {
				res := results[idx]
				idx++
				for d := 1; d <= 10; d++ {
					t := b.Time * int64(d) / 10
					// Latest sample at or before t.
					var hl, ll int64
					for _, s := range res.Series {
						if s.VirtTime > t {
							break
						}
						hl, ll = s.HLPaths, s.LLPaths
					}
					if ll > 0 {
						deciles[d-1] += float64(hl) / float64(ll)
						counts[d-1]++
					}
				}
			}
			for i := range deciles {
				if counts[i] > 0 {
					deciles[i] /= float64(counts[i])
				}
			}
			out = append(out, Fig10Series{Config: cfg.Name, Lang: lang, Points: deciles})
		}
	}
	return out
}

// RenderFig10 renders Figure 10.
func RenderFig10(series []Fig10Series) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: Fraction of low-level paths contributing new high-level paths [%], over virtual time\n")
	fmt.Fprintf(&sb, "%-7s %-22s", "Lang", "Config")
	for d := 1; d <= 10; d++ {
		fmt.Fprintf(&sb, " %5d%%", d*10)
	}
	sb.WriteString("  (of budget)\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "%-7s %-22s", s.Lang, s.Config)
		for _, v := range s.Points {
			fmt.Fprintf(&sb, " %5.1f%%", 100*v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig11Row is one Python package's high-level path count per cumulative
// optimization level, normalized to the fully optimized build (=100%).
type Fig11Row struct {
	Package string
	Tests   [4]Aggregated
	Percent [4]float64
}

// Fig11 reproduces Figure 11: the contribution of the interpreter
// optimizations, one cumulative level at a time, with path-optimized CUPA.
func Fig11(b Budgets) []Fig11Row {
	levels := interp.OptLevels()
	pkgs := packages.ByLang(packages.Python)
	var cells []cell
	for _, p := range pkgs {
		for li, lvl := range levels {
			cfg := Configuration{Name: interp.OptLevelNames()[li], Strategy: chef.StrategyCUPAPath, Interp: lvl}
			cells = append(cells, repCells(p, cfg, b)...)
		}
	}
	results := runCells(b, cells)
	var rows []Fig11Row
	idx := 0
	for _, p := range pkgs {
		row := Fig11Row{Package: p.Name}
		for li := range levels {
			t, _, _ := aggregate(results[idx : idx+b.Reps])
			idx += b.Reps
			row.Tests[li] = t
		}
		full := row.Tests[3].Mean
		if full < 1 {
			full = 1
		}
		for li := range levels {
			row.Percent[li] = 100 * row.Tests[li].Mean / full
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFig11 renders Figure 11.
func RenderFig11(rows []Fig11Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 11: High-level paths per interpreter optimization level (FullOpt = 100%)\n")
	fmt.Fprintf(&sb, "%-14s", "Package")
	for _, n := range interp.OptLevelNames() {
		fmt.Fprintf(&sb, " %30s", n)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s", r.Package)
		for li := range r.Percent {
			fmt.Fprintf(&sb, "        %6.1f%% (n=%6.1f)", r.Percent[li], r.Tests[li].Mean)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig12Point is the measured overhead of CHEF relative to the dedicated
// engine for one frame count and one optimization build.
type Fig12Point struct {
	Frames   int
	Level    string
	Overhead float64 // (CHEF time per HL path) / (dedicated time per path)
}

// Fig12 reproduces Figure 12: per-path execution time of the CHEF-based
// engine relative to the NICE-like dedicated engine on the MAC-learning
// controller, for 1..maxFrames symbolic frames and each optimization build.
func Fig12(maxFrames int, b Budgets) []Fig12Point {
	const macLen = 2
	levels := interp.OptLevels()
	names := interp.OptLevelNames()
	// Each frame count is an independent (dedicated engine + CHEF builds)
	// measurement; fan the frame counts out over the pool and concatenate in
	// frame order.
	perFrame := make([][]Fig12Point, maxFrames)
	chef.ParFor(b.Workers(), maxFrames, func(fi int) {
		n := fi + 1
		// Dedicated engine: explore the flat controller exhaustively.
		src := packages.MacLearningFlatSource(n)
		prog := minipy.MustCompile(src)
		ded := dedicated.New(prog, dedicated.Options{})
		var args []dedicated.Value
		for i := 0; i < n; i++ {
			args = append(args, symStrArg(fmt.Sprintf("s%d", i), macLen), symStrArg(fmt.Sprintf("d%d", i), macLen))
		}
		if err := ded.Explore("drive_frames", args); err != nil {
			panic(err)
		}
		dedPaths := len(ded.Tests())
		if dedPaths == 0 {
			dedPaths = 1
		}
		dedPerPath := float64(ded.VirtualTime()) / float64(dedPaths)

		for li, lvl := range levels {
			pt := packages.MacLearningFlatTest(n, macLen, lvl)
			s := chef.NewSession(pt.Program(), chef.Options{
				Strategy:      chef.StrategyCUPAPath,
				Seed:          b.Seed,
				StepLimit:     b.StepLimit,
				SolverOptions: solverOptions(b),
			})
			tests := s.Run(b.Time)
			paths := len(tests)
			if paths == 0 {
				paths = 1
			}
			chefPerPath := float64(s.Engine().Clock()) / float64(paths)
			perFrame[fi] = append(perFrame[fi], Fig12Point{Frames: n, Level: names[li], Overhead: chefPerPath / dedPerPath})
		}
	})
	var out []Fig12Point
	for _, pts := range perFrame {
		out = append(out, pts...)
	}
	return out
}

func symStrArg(name string, n int) dedicated.Value {
	b := make([]*symexpr.Expr, n)
	for i := range b {
		b[i] = symexpr.NewVar(symexpr.Var{Buf: name, Idx: i, W: symexpr.W8})
	}
	return dedicated.StrV{B: b}
}

// RenderFig12 renders Figure 12.
func RenderFig12(points []Fig12Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 12: CHEF per-path overhead vs dedicated (NICE-like) engine, MAC-learning controller\n")
	byLevel := map[string][]Fig12Point{}
	var levels []string
	for _, p := range points {
		if _, ok := byLevel[p.Level]; !ok {
			levels = append(levels, p.Level)
		}
		byLevel[p.Level] = append(byLevel[p.Level], p)
	}
	var frames []int
	seen := map[int]bool{}
	for _, p := range points {
		if !seen[p.Frames] {
			seen[p.Frames] = true
			frames = append(frames, p.Frames)
		}
	}
	sort.Ints(frames)
	fmt.Fprintf(&sb, "%-30s", "Build \\ Frames")
	for _, f := range frames {
		fmt.Fprintf(&sb, " %8d", f)
	}
	sb.WriteString("\n")
	for _, lvl := range levels {
		fmt.Fprintf(&sb, "%-30s", lvl)
		pts := byLevel[lvl]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Frames < pts[j].Frames })
		for _, p := range pts {
			fmt.Fprintf(&sb, " %7.1fx", p.Overhead)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

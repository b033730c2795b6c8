package oldc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algkit"
	"repro/internal/chaos"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

func TestHPrimeFor(t *testing.T) {
	// h′ = 4^⌈log₄ log₂(8h)⌉ ≥ log₂(8h).
	for _, h := range []int{1, 2, 4, 8, 16, 64} {
		hp := hPrimeFor(h)
		l := 1
		for (1 << uint(l)) < 8*h {
			l++
		}
		if hp < l {
			t.Fatalf("h=%d: h'=%d < log2(8h)=%d", h, hp, l)
		}
		// h′ is a power of 4.
		x := hp
		for x > 1 {
			if x%4 != 0 {
				t.Fatalf("h'=%d not a power of 4", hp)
			}
			x /= 4
		}
	}
}

func TestAnalyzeNodeCaseII(t *testing.T) {
	// A uniform-defect list puts all mass at one scale: Case II, one
	// candidate class.
	l := coloring.NodeList{Colors: []int{0, 1, 2, 3}, Defect: []int{1, 1, 1, 1}}
	s, err := analyzeNodeInto(newAnalyzeScratch(4), 8, l, 4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cands) != 1 {
		t.Fatalf("uniform defects should give a single class candidate, got %d", len(s.cands))
	}
	for _, c := range s.cands {
		if len(c.colors) != 4 || c.defect != 1 {
			t.Fatalf("candidate %+v", c)
		}
	}
}

func TestAnalyzeNodeEmptyList(t *testing.T) {
	if _, err := analyzeNodeInto(newAnalyzeScratch(4), 4, coloring.NodeList{}, 4, 4, 2, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestAuxListAlignment(t *testing.T) {
	s := classSelection{cands: []classCandidate{
		{class: 1, delta: 2},
		{class: 3, delta: 7},
	}}
	al := s.auxList()
	if al.Len() != 2 || al.Colors[0] != 0 || al.Colors[1] != 2 {
		t.Fatalf("aux colors %v", al.Colors)
	}
	if al.Defect[0] != 2 || al.Defect[1] != 7 {
		t.Fatalf("aux defects %v misaligned", al.Defect)
	}
}

// TestListForClass checks that a candidate class returns its list and a
// class outside the candidates returns none, which prepareTwoPhase reports
// as an error.
func TestListForClass(t *testing.T) {
	s := classSelection{cands: []classCandidate{
		{class: 2, colors: []int{9}, defect: 1},
	}}
	if colors, d := s.listForClass(2); len(colors) != 1 || colors[0] != 9 || d != 1 {
		t.Fatalf("class 2: got %v, defect %d", colors, d)
	}
	if colors, _ := s.listForClass(5); colors != nil {
		t.Fatalf("class 5 is no candidate, got %v", colors)
	}
}

func TestSolveSquareSumInstances(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gr    *graph.Graph
		beta  int
		kappa float64
		maxD  int
	}{
		{"regular-id", graph.RandomRegular(48, 8, 3), 8, 6.0, 3},
		{"gnp-id", graph.GNP(64, 0.15, 5), 0, 6.0, 3},
		{"regular-big-defect", graph.RandomRegular(40, 10, 7), 10, 5.0, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := graph.OrientByID(tc.gr)
			in, eng := prepareInput(t, o, 1<<12, tc.kappa, tc.maxD, 11)
			phi, stats, err := Solve(eng, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
				t.Fatal(err)
			}
			h := classCount(o)
			if stats.Rounds > 6*h+20 {
				t.Fatalf("rounds=%d h=%d, want O(log β)", stats.Rounds, h)
			}
		})
	}
}

func TestSolveZeroDefectListColoring(t *testing.T) {
	// All-zero defects with large lists: Theorem 1.1 as a proper list
	// coloring algorithm (the MT20 special case).
	g := graph.RandomRegular(40, 6, 13)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 1<<11, 8.0, 0, 17)
	phi, _, err := Solve(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < o.N(); v++ {
		for _, u := range o.Out(v) {
			if phi[u] == phi[v] {
				t.Fatalf("monochromatic arc %d->%d", v, u)
			}
		}
	}
}

func TestSolveRejectsGap(t *testing.T) {
	g := graph.Ring(8)
	o := graph.OrientByID(g)
	in, eng := prepareInput(t, o, 256, 4.0, 0, 1)
	if _, _, err := Solve(eng, in, Options{Gap: 1}); err == nil {
		t.Fatal("Solve must reject gap != 0")
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := graph.RandomRegular(32, 6, 21)
	o := graph.OrientByID(g)
	run := func() coloring.Assignment {
		in, eng := prepareInput(t, o, 1<<11, 6.0, 2, 23)
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return phi
	}
	a := run()
	b := run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestSolveLowDegreeGraphs(t *testing.T) {
	// β = 1..2: h = 1, the trivial-selection shortcut.
	for _, g := range []*graph.Graph{graph.Ring(16), graph.RandomTree(40, 3)} {
		o := graph.OrientDegeneracy(g)
		in, eng := prepareInput(t, o, 256, 4.0, 1, 29)
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckOLDC(o, in.Lists, phi); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveHighKappaMoreHeadroom(t *testing.T) {
	// Sanity: richer lists (larger κ) must not break anything and should
	// keep rounds identical (round count depends only on h).
	g := graph.RandomRegular(32, 8, 31)
	o := graph.OrientByID(g)
	in1, eng1 := prepareInput(t, o, 1<<13, 4.0, 2, 37)
	_, s1, err := Solve(eng1, in1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2, eng2 := prepareInput(t, o, 1<<13, 12.0, 2, 37)
	_, s2, err := Solve(eng2, in2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Rounds != s2.Rounds {
		t.Fatalf("round count should depend only on h: %d vs %d", s1.Rounds, s2.Rounds)
	}
}

func TestSolveFailsLoudlyUnderFaults(t *testing.T) {
	// Failure injection: with messages adversarially dropped the algorithm
	// must either still produce a valid coloring or return an error — it
	// must never return an invalid coloring silently.
	g := graph.RandomRegular(40, 8, 53)
	o := graph.OrientByID(g)
	for drop := 0; drop < 5; drop++ {
		in, eng := prepareInput(t, o, 1<<12, 5.0, 2, 55)
		d := drop
		eng.Faults = dropWhere(func(round, from, to int) bool {
			return (from+to+round)%5 == d // drop ~20% of messages
		})
		phi, _, err := Solve(eng, in, Options{})
		if err != nil {
			continue // loud failure: acceptable
		}
		if verr := coloring.CheckOLDC(o, in.Lists, phi); verr != nil {
			t.Fatalf("drop=%d: Solve returned an invalid coloring without error: %v", d, verr)
		}
	}
}

func TestSolveUndirected(t *testing.T) {
	// The reduction remarked after Theorem 1.2: replacing every edge {u,v}
	// by the arcs (u,v) and (v,u) makes an undirected instance an
	// equivalent oriented one with β_v = deg(v), so Solve's OLDC output on
	// the symmetric orientation is a list defective coloring of g.
	g := graph.RandomRegular(40, 6, 41)
	in, eng := prepareInput(t, graph.OrientSymmetric(g), 1<<12, 5.0, 2, 43)
	phi, _, err := Solve(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uin := &coloring.Instance{G: g, SpaceSize: in.SpaceSize, Lists: in.Lists}
	if err := coloring.CheckLDC(uin, phi); err != nil {
		t.Fatal(err)
	}
}

// refAnalyzeNode is the Lemma 3.8 case analysis done color by color,
// without analyzeNodeInto's μ memo, views and arenas: each color's μ and
// weight computed afresh, the parts' counts, masses and minimum defects
// summed in list order, and every part's colors copied into a slice of
// its own.
func refAnalyzeNode(beta int, l coloring.NodeList, h, hPrime, tauBar, alpha int) (classSelection, error) {
	if l.Len() == 0 {
		return classSelection{}, fmt.Errorf("empty color list")
	}
	betaHat := algkit.NextPow2(beta)
	rv := float64(alpha) * float64(betaHat) * float64(betaHat) * float64(tauBar) * float64(hPrime) * float64(hPrime)
	type part struct {
		count, minDef int
		mass          float64
		colors        []int
	}
	parts := make([]part, h+1)
	var totalMass float64
	for idx, x := range l.Colors {
		d := l.Defect[idx]
		w := float64((d + 1) * (d + 1))
		p := &parts[scaleOf(rv, w, h)]
		if p.count == 0 || d < p.minDef {
			p.minDef = d
		}
		p.count++
		p.mass += w
		p.colors = append(p.colors, x)
		totalMass += w
	}
	// Case II: some λ ≥ 1/4.
	for mu := 1; mu <= h; mu++ {
		p := &parts[mu]
		if p.count > 0 && lambdaOf(p.mass, totalMass, h) >= 0.25 {
			return classSelection{cands: []classCandidate{{
				class: clamp(mu, 1, h), delta: int(math.Sqrt(rv) / 4), colors: p.colors, defect: p.minDef,
			}}}, nil
		}
	}
	// Case I: f_v(μ) = μ − r + 2, the smallest μ winning each class.
	var cands []classCandidate
	for mu := 1; mu <= h; mu++ {
		p := &parts[mu]
		if p.count == 0 {
			continue
		}
		lam := lambdaOf(p.mass, totalMass, h)
		if lam == 0 {
			continue
		}
		f := mu - int(math.Round(-math.Log(lam)/math.Log(4))) + 2
		if f < 1 || f > h || candTaken(cands, f) {
			continue
		}
		cands = insertCandidate(cands, 0, classCandidate{
			class: f, delta: int(math.Floor(math.Sqrt(lam * rv))), colors: p.colors, defect: p.minDef,
		})
	}
	if len(cands) == 0 {
		bestMu, bestMass := 0, -1.0
		for mu := 1; mu <= h; mu++ {
			if parts[mu].count > 0 && parts[mu].mass > bestMass {
				bestMu, bestMass = mu, parts[mu].mass
			}
		}
		p := &parts[bestMu]
		cands = append(cands, classCandidate{
			class: clamp(bestMu, 1, h), delta: int(math.Floor(math.Sqrt(p.mass))), colors: p.colors, defect: p.minDef,
		})
	}
	return classSelection{cands: cands}, nil
}

// analyzeCoverage counts the lists checkAnalyzeNode saw by what they
// exercised.
type analyzeCoverage struct {
	caseI, caseII, shared, whole int
}

// analyzeInput draws a list for checkAnalyzeNode: up to parts distinct
// defects, below 64 or (large) at or beyond it, some of those in the μ
// memo slot of a defect below 64, each on about size/(d+1)² colors so
// that several scales carry comparable mass, shuffled over ascending
// colors. It returns the list and the node's β, h, h′, τ̄ and α. With
// six parts or more the list holds one defect at each of six scales, and
// h and β put all six inside [1, h], so that no part reaches a quarter
// of the mass: Case I.
func analyzeInput(rng *rand.Rand, size, parts int, large bool) (coloring.NodeList, [5]int) {
	h, beta := 1+rng.Intn(8), 1+rng.Intn(1<<uint(rng.Intn(8)))
	var defs []int
	if parts >= 6 {
		h, beta = 6+rng.Intn(3), 3+rng.Intn(6)
		defs = []int{0, 1, 3, 7, 15, 31}
	}
	for len(defs) < parts {
		d := 1<<uint(rng.Intn(6)) - 1 + rng.Intn(2) // 0..32
		if large {
			switch rng.Intn(3) {
			case 0:
				d = 64 + rng.Intn(1<<uint(rng.Intn(31)))
			case 1:
				d += 64 << uint(rng.Intn(25)) // the μ memo slot of d
			}
		}
		if !slices.Contains(defs, d) {
			defs = append(defs, d)
		}
	}
	var defect []int
	for _, d := range defs {
		k := max(1, size/((d+1)*(d+1)))
		for k += rng.Intn(k/2+1) - k/4; k > 0; k-- {
			defect = append(defect, d)
		}
	}
	rng.Shuffle(len(defect), func(i, j int) { defect[i], defect[j] = defect[j], defect[i] })
	colors := make([]int, len(defect), len(defect)+1+rng.Intn(4)) // spare capacity a view must not expose
	x := rng.Intn(8)
	for i := range colors {
		colors[i] = x
		x += 1 + rng.Intn(4)
	}
	return coloring.NodeList{Colors: colors, Defect: defect},
		[5]int{beta, h, hPrimeFor(h), 1 + rng.Intn(4), 1 + rng.Intn(3)}
}

// checkAnalyzeNode runs analyzeNodeInto on one shared scratch for every
// list and requires each selection to equal refAnalyzeNode's: classes,
// δ, defects and colors. A candidate that takes the whole list must be a
// capacity-capped view of it. The selections are compared after the last
// call, since later nodes carve the same arenas.
func checkAnalyzeNode(t *testing.T, lists []coloring.NodeList, params [][5]int, cov *analyzeCoverage) {
	t.Helper()
	h := 0
	for _, p := range params {
		h = max(h, p[1])
	}
	sc := newAnalyzeScratch(h)
	got := make([]classSelection, len(lists))
	want := make([]classSelection, len(lists))
	for i, l := range lists {
		p := params[i]
		var err error
		if got[i], err = analyzeNodeInto(sc, p[0], l, p[1], p[2], p[3], p[4]); err != nil {
			t.Fatal(err)
		}
		if want[i], err = refAnalyzeNode(p[0], l, p[1], p[2], p[3], p[4]); err != nil {
			t.Fatal(err)
		}
		betaHat := algkit.NextPow2(p[0])
		rv := float64(p[4]) * float64(betaHat*betaHat) * float64(p[3]) * float64(p[2]*p[2])
		switch c := want[i].cands; {
		case len(c) > 1:
			cov.caseI++
		case c[0].delta == int(math.Sqrt(rv)/4):
			cov.caseII++
		}
		slot := make(map[int]int)
		for _, d := range l.Defect {
			if e, ok := slot[d%len(sc.muOf)]; ok && e != d {
				cov.shared++
				break
			}
			slot[d%len(sc.muOf)] = d
		}
		for _, c := range got[i].cands {
			if len(c.colors) == l.Len() {
				cov.whole++
				if &c.colors[0] != &l.Colors[0] || cap(c.colors) != l.Len() {
					t.Fatalf("list %d: a candidate with the whole list is not a capped view of it", i)
				}
			}
		}
	}
	for i := range lists {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("list %d (defects %v, params %v):\n got %+v\nwant %+v", i, lists[i].Defect, params[i], got[i], want[i])
		}
	}
}

// TestAnalyzeNodeMatchesReference checks the case analysis against the
// per-color reference on 3,000 random lists in runs of three sharing a
// scratch, and that they reach Case I, Case II, whole-list views and
// distinct defects that share a μ memo slot.
func TestAnalyzeNodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var cov analyzeCoverage
	for run := 0; run < 1000; run++ {
		var lists []coloring.NodeList
		var params [][5]int
		for k := 0; k < 3; k++ {
			l, p := analyzeInput(rng, 1+rng.Intn(2048), 1+rng.Intn(8), rng.Intn(4) == 0)
			lists, params = append(lists, l), append(params, p)
		}
		checkAnalyzeNode(t, lists, params, &cov)
	}
	if cov.caseI < 100 || cov.caseII < 100 || cov.shared < 100 || cov.whole < 100 {
		t.Fatalf("coverage: %d Case I, %d Case II, %d with a shared memo slot, %d whole-list views", cov.caseI, cov.caseII, cov.shared, cov.whole)
	}
}

// FuzzAnalyzeNode checks analyzeNodeInto against refAnalyzeNode on three
// fuzzer-drawn lists sharing one scratch: list sizes, the number of
// distinct defects (one part or many) and defects of 64 or more, which
// share the 64-slot μ memo with smaller ones.
func FuzzAnalyzeNode(f *testing.F) {
	f.Add(int64(1), uint16(4700), uint8(3), false) // the oldc-d128 shape: defects 0, 1, 3
	f.Add(int64(2), uint16(1), uint8(1), false)
	f.Add(int64(3), uint16(300), uint8(1), true)
	f.Add(int64(4), uint16(900), uint8(6), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, parts uint8, large bool) {
		rng := rand.New(rand.NewSource(seed))
		var lists []coloring.NodeList
		var params [][5]int
		for k := 0; k < 3; k++ {
			l, p := analyzeInput(rng, 1+int(size)%5000, 1+int(parts)%8, large)
			lists, params = append(lists, l), append(params, p)
		}
		checkAnalyzeNode(t, lists, params, &analyzeCoverage{})
	})
}

// TestSolveLeavesInputIntact: the candidate lists Solve keeps for most
// nodes are views of in.Lists, so nothing downstream may write through
// them. Solve, SolveRobust under drop and flip faults, and a two-phase
// stage killed after round 2 and resumed from its checkpoint must each
// leave every list equal to a deep copy taken before the call.
func TestSolveLeavesInputIntact(t *testing.T) {
	g := permutedCirculant(128, 32, 3)
	o := graph.OrientByID(g)
	fresh := func() Input { return identityInput(o, 1<<13, 6.0, 3, 9) }
	check := func(name string, in Input, run func(in Input)) {
		t.Helper()
		want := make([]coloring.NodeList, len(in.Lists))
		for v, l := range in.Lists {
			want[v] = coloring.NodeList{Colors: slices.Clone(l.Colors), Defect: slices.Clone(l.Defect)}
		}
		run(in)
		if !reflect.DeepEqual(in.Lists, want) {
			t.Fatalf("%s wrote to its input lists", name)
		}
	}

	// The instance must have both kinds of candidate list.
	in := fresh()
	a, _, err := prepareTwoPhase(sim.NewEngine(g), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	views, copies := 0, 0
	for v, l := range a.spec.lists {
		if &l[0] == &in.Lists[v].Colors[0] {
			views++
		} else {
			copies++
		}
	}
	if views == 0 || copies == 0 {
		t.Fatalf("%d nodes keep a view of their list and %d a copy; want both", views, copies)
	}

	check("Solve", fresh(), func(in Input) {
		if _, _, err := Solve(sim.NewEngine(g), in, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	check("SolveRobust", fresh(), func(in Input) {
		faults := chaos.Compose(chaos.Drop(7, 0.08), chaos.Flip(8, 0.08))
		eng := sim.NewEngineWith(g, sim.Options{Faults: faults})
		var res *ErrResidual
		if _, _, err := SolveRobust(eng, in, cover.Params{}); err != nil && !errors.As(err, &res) {
			t.Fatal(err)
		}
	})
	check("checkpoint/resume", fresh(), func(in Input) {
		path := filepath.Join(t.TempDir(), "oldc.ckpt")
		eng := sim.NewEngine(g)
		a, _, err := prepareTwoPhase(eng, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		errKill := errors.New("injected kill")
		ckp := &sim.Checkpointer{Path: path, Every: 1}
		eng.SetAfterRound(sim.ChainHooks(ckp.Hook(a), func(round int, _ *sim.Stats) error {
			if round == 2 {
				return errKill
			}
			return nil
		}))
		if _, err := eng.Run(a, twoPhaseMaxRounds(a.spec.h)); !errors.Is(err, errKill) {
			t.Fatalf("want injected kill, got %v", err)
		}
		ck, err := sim.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		eng2 := sim.NewEngine(g)
		a2, _, err := prepareTwoPhase(eng2, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Restore(a2); err != nil {
			t.Fatal(err)
		}
		if _, err := eng2.RunFrom(a2, ck.Round, twoPhaseMaxRounds(a2.spec.h), ck.Stats); err != nil {
			t.Fatal(err)
		}
		if err := coloring.CheckOLDC(o, in.Lists, coloring.Assignment(a2.phi)); err != nil {
			t.Fatal(err)
		}
	})
}

package oldc

import (
	"fmt"

	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// basicSpec is the input of the basic single-defect algorithm of Section
// 3.2.3: every node has one restricted color list, one defect value, and a
// γ-class; colors within distance gap conflict.
type basicSpec struct {
	o          *graph.Oriented
	spaceSize  int
	m          int
	initColors []int
	lists      [][]int // sorted single-defect lists (before residue restriction)
	defect     []int
	gclass     []int // γ-class i_v ∈ [1, h]
	h          int
	gap        int
	tau        int
	kprime     int
	pr         cover.Params
}

// basicAlg runs the basic algorithm:
//
//	round 1:      broadcast type; compute C_v from the received types (P2→P1)
//	round 2:      broadcast C_v (as an index); class h picks its color
//	round 2+k:    freshly picked colors are announced; class h−k picks
//
// for a total of h+1 rounds.
type basicAlg struct {
	nbrRecord
	reslist [][]int // residue-restricted lists (Section 3.2.2)
}

func newBasicAlg(spec basicSpec) (*basicAlg, error) {
	n := spec.o.N()
	a := &basicAlg{nbrRecord: newNbrRecord(spec), reslist: make([][]int, n)}
	for v := 0; v < n; v++ {
		if len(spec.lists[v]) == 0 {
			return nil, fmt.Errorf("oldc: node %d has an empty list", v)
		}
		if spec.gclass[v] < 1 || spec.gclass[v] > spec.h {
			return nil, fmt.Errorf("oldc: node %d has γ-class %d outside [1,%d]", v, spec.gclass[v], spec.h)
		}
		_, res := cover.BestResidue(spec.lists[v], spec.gap)
		a.reslist[v] = res
		a.ownK[v] = a.familyOf(a.typeOf(v, res))
	}
	return a, nil
}

func (a *basicAlg) Outbox(v int, out *sim.Outbox) {
	switch {
	case a.round == 1:
		out.Broadcast(a.typePayload(v, a.reslist[v]))
	case a.round == 2:
		out.Broadcast(sim.UintPayload{Value: uint64(a.cvIdx[v]), Width: bitio.WidthFor(a.spec.kprime)})
	default:
		if a.pickedAt[v] == a.round-1 {
			out.Broadcast(sim.UintPayload{Value: uint64(a.phi[v]), Width: bitio.WidthFor(a.spec.spaceSize)})
		}
	}
}

func (a *basicAlg) Inbox(v int, in []sim.Received) {
	switch {
	case a.round == 1:
		a.recvTypes(v, in)
		sc := algkit.GetScratch()
		a.chooseCv(v, sc)
		algkit.PutScratch(sc)
	case a.round == 2:
		a.recvSets(v, in)
		if a.spec.gclass[v] == a.spec.h {
			sc := algkit.GetScratch()
			a.pickColor(v, sc)
			algkit.PutScratch(sc)
		}
	default:
		a.recvColors(v, in)
		cur := a.spec.h - (a.round - 2)
		if a.spec.gclass[v] == cur {
			sc := algkit.GetScratch()
			a.pickColor(v, sc)
			algkit.PutScratch(sc)
		}
	}
}

// chooseCv solves P1 for node v: among the candidate family, pick the set
// with the fewest τ&g-conflicting same-or-lower-class out-neighbors,
// recording the chosen index for the round-2 announcement. One batched
// FamilyConflictMask call per neighbor replaces the per-(set, neighbor,
// set) scalar sweep; conflictArgmin keeps the same first-minimum rule.
func (a *basicAlg) chooseCv(v int, sc *algkit.Scratch) {
	own := a.ownK[v]
	if len(own.Sets) == 0 {
		// Degenerate family; fall back to the full restricted list.
		a.cv[v] = a.reslist[v]
		a.cvIdx[v] = 0
		return
	}
	d := algkit.Grow32(sc.D, len(own.Sets))
	sc.D = d
	for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
		fam := a.nbrFam[p]
		if fam == nil || a.nbrType[p].gclass > a.spec.gclass[v] {
			continue
		}
		algkit.AccumulateConflicts(d, &sc.Kernel, own, fam, a.spec.tau, a.spec.gap)
	}
	bestIdx := algkit.ConflictArgmin(d)
	a.cv[v] = own.Sets[bestIdx]
	a.cvIdx[v] = bestIdx
}

// pickColor finalizes v's color: the list color with the lowest frequency
// among same-or-lower-class out-neighbor candidate sets and already-colored
// higher-class out-neighbors (Section 3.2.3). The counts are accumulated
// neighbor-outer into one per-color buffer, so each neighbor set is walked
// once instead of once per own color.
func (a *basicAlg) pickColor(v int, sc *algkit.Scratch) {
	cv := a.cv[v]
	cnt := algkit.Grow32(sc.Cnt, len(cv))
	sc.Cnt = cnt
	g := a.spec.gap
	for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
		if a.nbrCv[p] != nil && a.nbrType[p].gclass <= a.spec.gclass[v] {
			for _, y := range a.nbrCv[p] {
				algkit.CountWindow(cnt, cv, y, g)
			}
		}
		if xu := a.nbrColor[p]; xu >= 0 {
			algkit.CountWindow(cnt, cv, int(xu), g)
		}
	}
	bestX := -1
	bestF := int32(^uint32(0) >> 1)
	for j, x := range cv {
		if cnt[j] < bestF {
			bestF = cnt[j]
			bestX = x
		}
	}
	if bestX == -1 {
		bestX = a.reslist[v][0]
	}
	a.phi[v] = bestX
	a.pickedAt[v] = a.round
}

func (a *basicAlg) Done() bool { return a.done(a.spec.h + 1) }

// runBasic executes the basic algorithm and returns the coloring.
func runBasic(eng *sim.Engine, spec basicSpec) ([]int, sim.Stats, error) {
	alg, err := newBasicAlg(spec)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	alg.sink = eng
	obs.EmitPhase(eng.Tracer(), "oldc/basic", obs.Attrs{"h": spec.h, "gap": spec.gap})
	stats, err := eng.Run(alg, spec.h+3)
	publishCacheStats(eng, alg.cache)
	if err != nil {
		return nil, stats, err
	}
	for v, c := range alg.phi {
		if c < 0 {
			return nil, stats, fmt.Errorf("oldc: node %d left uncolored", v)
		}
	}
	return alg.phi, stats, nil
}

// gammaClass returns the smallest i ≥ 1 with 2^i ≥ 2β/(d+1), clamped to h
// (Section 3.2.3).
func gammaClass(beta, d, h int) int {
	need := 2 * beta / (d + 1)
	i := 1
	for (1 << uint(i)) < need {
		i++
	}
	if i > h {
		i = h
	}
	return i
}

// classCount returns h = max(1, ⌈log₂ β̂⌉).
func classCount(o *graph.Oriented) int {
	b := algkit.MaxOutDegreePow2(o)
	h := 0
	for (1 << uint(h)) < b {
		h++
	}
	if h < 1 {
		h = 1
	}
	return h
}

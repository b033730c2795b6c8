package oldc

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// The two-phase algorithm of Lemma 3.7 is the long-running stage of Solve
// (3h synchronous rounds), so it is the stage worth checkpointing. Its
// dynamic state divides into three kinds:
//
//   - plain per-node/per-arc values (phi, pickedAt, nbrColor, the round
//     clock), serialized directly;
//   - arena-backed color lists (curList regions of listBuf, received type
//     lists), serialized by content and re-interned on restore;
//   - derived cover structures (ownK/nbrFam families, cv/nbrCv candidate
//     sets), NOT serialized: families are pure functions of a type
//     (familyOf), and the chosen sets are recovered from the recorded
//     indices cvIdx/nbrCvIdx. This keeps images small and means a restore
//     shares the family cache of its fresh process like any other solve.
//
// Everything static (basicSpec) is rebuilt by re-running prepareTwoPhase
// on the original Input — preparation is deterministic, so the restored
// algorithm is bit-identical to the one that was killed.

var _ sim.Snapshotter = (*twoPhaseAlg)(nil)

// SnapshotState implements sim.Snapshotter.
func (a *twoPhaseAlg) SnapshotState(e *ckpt.Encoder) {
	n := a.spec.o.N()
	arcs := a.csr.Arcs()
	e.Int(n)
	e.Int(arcs)
	e.Int(a.round)
	e.Bool(a.started)
	e.Bool(a.finished)
	for v := 0; v < n; v++ {
		if a.curList[v] == nil {
			e.Int(-1)
		} else {
			e.Int(len(a.curList[v]))
			for _, x := range a.curList[v] {
				e.Int(x)
			}
		}
		e.Bool(a.ownK[v] != nil)
		e.Int(a.cvIdx[v])
		e.Int(a.phi[v])
		e.Int(a.pickedAt[v])
	}
	for p := 0; p < arcs; p++ {
		t := &a.nbrType[p]
		has := a.nbrFam[p] != nil
		e.Bool(has)
		if has {
			e.Int(t.initColor)
			e.Int(t.gclass)
			e.Int(t.defect)
			e.Ints(t.list)
		}
		e.Int(int(a.nbrCvIdx[p]))
		e.Int(int(a.nbrColor[p]))
	}
}

// RestoreState implements sim.Snapshotter: it rebuilds the dynamic state
// into a freshly prepared algorithm (same Input, same Options), deriving
// families and candidate sets from the serialized types and indices. All
// counts, indices, and colors are validated against the prepared spec, so
// a checkpoint from a different instance fails typed instead of
// corrupting the solve.
func (a *twoPhaseAlg) RestoreState(d *ckpt.Decoder) error {
	n := a.spec.o.N()
	arcs := a.csr.Arcs()
	if gotN, gotArcs := d.Int(), d.Int(); gotN != n || gotArcs != arcs {
		return fmt.Errorf("oldc: checkpoint is for %d nodes/%d arcs, instance has %d/%d", gotN, gotArcs, n, arcs)
	}
	a.round = d.Int()
	a.started = d.Bool()
	a.finished = d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if a.round < 0 || a.round > 3*a.spec.h+1 || (!a.started && a.round != 0) {
		return fmt.Errorf("oldc: checkpoint round %d (started=%v) out of range for h=%d", a.round, a.started, a.spec.h)
	}
	for v := 0; v < n; v++ {
		region := a.listBuf[a.listOff[v]:a.listOff[v]:a.listOff[v+1]]
		curLen := d.Int()
		if curLen >= 0 {
			if curLen == 0 || curLen > cap(region) {
				return fmt.Errorf("oldc: node %d current list length %d outside [1, %d]", v, curLen, cap(region))
			}
			region = region[:curLen]
			for j := range region {
				region[j] = d.Int()
				if region[j] < 0 || region[j] >= a.spec.spaceSize || (j > 0 && region[j] <= region[j-1]) {
					return fmt.Errorf("oldc: node %d current list not a sorted subset of the color space", v)
				}
			}
			a.curList[v] = region
		} else {
			a.curList[v] = nil
		}
		hasOwn := d.Bool()
		cvIdx := d.Int()
		phi := d.Int()
		picked := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if hasOwn {
			if a.curList[v] == nil {
				return fmt.Errorf("oldc: node %d has a family but no current list", v)
			}
			a.ownK[v] = a.familyOf(a.typeOf(v, a.curList[v]))
			if len(a.ownK[v].Sets) == 0 {
				if cvIdx != 0 {
					return fmt.Errorf("oldc: node %d set index %d with an empty family", v, cvIdx)
				}
				a.cv[v] = a.curList[v]
			} else {
				if cvIdx < 0 || cvIdx >= len(a.ownK[v].Sets) {
					return fmt.Errorf("oldc: node %d set index %d outside family of %d sets", v, cvIdx, len(a.ownK[v].Sets))
				}
				a.cv[v] = a.ownK[v].Sets[cvIdx]
			}
			a.cvIdx[v] = cvIdx
		} else {
			a.ownK[v], a.cv[v], a.cvIdx[v] = nil, nil, 0
		}
		if phi < -1 || phi >= a.spec.spaceSize || picked < -1 || picked > 3*a.spec.h {
			return fmt.Errorf("oldc: node %d color %d / pick round %d out of range", v, phi, picked)
		}
		a.phi[v] = phi
		a.pickedAt[v] = picked
	}
	for p := 0; p < arcs; p++ {
		hasType := d.Bool()
		if hasType {
			t := typeInfo{initColor: d.Int(), gclass: d.Int(), defect: d.Int(), list: d.Ints()}
			if d.Err() != nil {
				return d.Err()
			}
			if t.gclass < 1 || t.gclass > a.spec.h || t.defect < 0 || len(t.list) == 0 {
				return fmt.Errorf("oldc: arc %d type (class %d, defect %d, %d colors) malformed", p, t.gclass, t.defect, len(t.list))
			}
			for j, x := range t.list {
				if x < 0 || x >= a.spec.spaceSize || (j > 0 && x <= t.list[j-1]) {
					return fmt.Errorf("oldc: arc %d type list not a sorted subset of the color space", p)
				}
			}
			a.nbrType[p] = t
			a.nbrFam[p] = a.familyOf(t)
		} else {
			a.nbrType[p] = typeInfo{}
			a.nbrFam[p] = nil
		}
		cvIdx := d.Int()
		color := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if cvIdx >= 0 {
			if a.nbrFam[p] == nil || cvIdx >= len(a.nbrFam[p].Sets) {
				return fmt.Errorf("oldc: arc %d announced set %d without a matching family", p, cvIdx)
			}
			a.nbrCv[p] = a.nbrFam[p].Sets[cvIdx]
		} else {
			a.nbrCv[p] = nil
		}
		a.nbrCvIdx[p] = int32(cvIdx)
		if color < -1 || color >= a.spec.spaceSize {
			return fmt.Errorf("oldc: arc %d final color %d outside color space", p, color)
		}
		a.nbrColor[p] = int32(color)
	}
	return d.Err()
}

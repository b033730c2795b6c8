package oldc

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/coloring"
	"repro/internal/sim"
)

// TestTwoPhaseKillResume pins the checkpoint contract of the Lemma 3.7
// two-phase stage: a solve killed at a round boundary and resumed — fresh
// preparation, RestoreState, RunFrom on the absolute clock — produces a
// coloring and two-phase Stats bit-identical to an uninterrupted run, at
// several kill rounds and checkpoint cadences.
func TestTwoPhaseKillResume(t *testing.T) {
	for _, tc := range goldenInstances() {
		t.Run(tc.name, func(t *testing.T) {
			in, eng := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
			refAlg, _, err := prepareTwoPhase(eng, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			maxRounds := twoPhaseMaxRounds(refAlg.spec.h)
			wantStats, err := eng.Run(refAlg, maxRounds)
			if err != nil {
				t.Fatal(err)
			}
			wantPhi := coloring.Assignment(refAlg.phi)
			if err := coloring.CheckOLDC(in.O, in.Lists, wantPhi); err != nil {
				t.Fatalf("reference coloring invalid: %v", err)
			}

			errKill := errors.New("injected kill")
			for _, kill := range []int{1, 2, 5} {
				if kill >= 3*refAlg.spec.h {
					continue
				}
				for _, every := range []int{1, 2} {
					path := filepath.Join(t.TempDir(), "oldc.ckpt")
					in1, eng1 := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
					alg, _, err := prepareTwoPhase(eng1, in1, Options{})
					if err != nil {
						t.Fatal(err)
					}
					ckp := &sim.Checkpointer{Path: path, Every: every}
					eng1.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
						if round == kill {
							return errKill
						}
						return nil
					}))
					if _, err := eng1.Run(alg, maxRounds); !errors.Is(err, errKill) {
						t.Fatalf("kill=%d every=%d: want injected kill, got %v", kill, every, err)
					}

					ck, err := sim.ReadCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					in2, eng2 := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
					alg2, _, err := prepareTwoPhase(eng2, in2, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if err := ck.Restore(alg2); err != nil {
						t.Fatalf("kill=%d every=%d: restore: %v", kill, every, err)
					}
					stats, err := eng2.RunFrom(alg2, ck.Round, maxRounds, ck.Stats)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantPhi, coloring.Assignment(alg2.phi)) {
						t.Errorf("kill=%d every=%d: coloring diverges after resume", kill, every)
					}
					if !reflect.DeepEqual(wantStats, stats) {
						t.Errorf("kill=%d every=%d: stats diverge:\n want %+v\n  got %+v", kill, every, wantStats, stats)
					}
				}
			}
		})
	}
}

// TestTwoPhaseRestoreRejectsDamage pins fail-closed restores: state blobs
// from a different instance, or with out-of-range indices, return errors
// and never panic.
func TestTwoPhaseRestoreRejectsDamage(t *testing.T) {
	insts := goldenInstances()
	in, eng := prepareInput(t, insts[0].o, 1<<12, 6.0, 3, insts[0].seed)
	alg, _, err := prepareTwoPhase(eng, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errKill := errors.New("kill")
	path := filepath.Join(t.TempDir(), "oldc.ckpt")
	ckp := &sim.Checkpointer{Path: path, Every: 1}
	eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
		if round >= 2 {
			return errKill
		}
		return nil
	}))
	if _, err := eng.Run(alg, twoPhaseMaxRounds(alg.spec.h)); !errors.Is(err, errKill) {
		t.Fatalf("want injected kill, got %v", err)
	}
	ck, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Same image, wrong instance: node/arc counts cannot match.
	in2, eng2 := prepareInput(t, insts[1].o, 1<<12, 6.0, 3, insts[1].seed)
	alg2, _, err := prepareTwoPhase(eng2, in2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(alg2); err == nil {
		t.Error("restore into a different instance succeeded")
	}

	// Bit-flipped state blobs: every failure is a typed error, never a
	// panic or silent acceptance of semantic damage.
	img := ck.Encode()
	for i := 0; i < len(img); i += 5 {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x08
		dck, err := sim.DecodeCheckpoint(bad)
		if err != nil {
			var ce *ckpt.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("byte %d: %v is not *ckpt.CorruptError", i, err)
			}
			continue
		}
		in3, eng3 := prepareInput(t, insts[0].o, 1<<12, 6.0, 3, insts[0].seed)
		alg3, _, err := prepareTwoPhase(eng3, in3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_ = dck.Restore(alg3)
	}
}

// TestTwoPhaseCheckpointImageDigest pins the ldc-ckpt/v1 bytes
// sim.Checkpointer writes for TestTwoPhaseKillResume's instances killed
// after round 2. The image is an on-disk format (docs/RECOVERY.md): a
// change to SnapshotState's field order or content moves these digests,
// and an image written before the change would no longer restore.
func TestTwoPhaseCheckpointImageDigest(t *testing.T) {
	want := map[string]string{
		"regular-48-8": "c44b8bb95705bae6",
		"gnp-64":       "8fccdbb6e5a078e9",
		"tree-degen":   "af479cdce24330f0",
	}
	for _, tc := range goldenInstances() {
		t.Run(tc.name, func(t *testing.T) {
			in, eng := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
			alg, _, err := prepareTwoPhase(eng, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "oldc.ckpt")
			errKill := errors.New("injected kill")
			ckp := &sim.Checkpointer{Path: path, Every: 1}
			eng.SetAfterRound(sim.ChainHooks(ckp.Hook(alg), func(round int, _ *sim.Stats) error {
				if round == 2 {
					return errKill
				}
				return nil
			}))
			if _, err := eng.Run(alg, twoPhaseMaxRounds(alg.spec.h)); !errors.Is(err, errKill) {
				t.Fatalf("want injected kill, got %v", err)
			}
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, tc.name, digest(img), want[tc.name])
		})
	}
}

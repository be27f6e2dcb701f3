package backendspec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"spinwave/internal/core"
	"spinwave/internal/engine"
	"spinwave/internal/fleet"
	"spinwave/internal/layout"
	"spinwave/internal/material"
)

// TestResolveVocabulary pins the whole request vocabulary: every alias,
// letter case and default resolves to its canonical key, and every
// rejection carries its error class.
func TestResolveVocabulary(t *testing.T) {
	xor := Key{Gate: "xor", Backend: Behavioral, Spec: "paper", Material: "fecob"}
	with := func(k Key, edit func(*Key)) Key { edit(&k); return k }
	for _, tc := range []struct {
		req  Request
		want Key
	}{
		{Request{Gate: "xor"}, xor},
		{Request{Gate: "XOR", Backend: "Behavioral", Spec: "Paper", Material: "FeCoB"}, xor},
		{Request{}, with(xor, func(k *Key) { k.Gate = "maj3" })},
		{Request{Gate: "maj3"}, with(xor, func(k *Key) { k.Gate = "maj3" })},
		{Request{Gate: "Majority"}, with(xor, func(k *Key) { k.Gate = "maj3" })},
		{Request{Gate: "maj"}, with(xor, func(k *Key) { k.Gate = "maj3" })}, // swsim
		{Request{Gate: "maj3single"}, with(xor, func(k *Key) { k.Gate = "maj3single" })},
		{Request{Gate: "MAJ3-Single"}, with(xor, func(k *Key) { k.Gate = "maj3single" })},
		{Request{Gate: "maj5"}, with(xor, func(k *Key) { k.Gate = "maj5" })},
		{Request{Gate: "xor", Backend: "micromag"}, with(xor, func(k *Key) { k.Backend, k.Spec = Micromagnetic, "reduced" })},
		{Request{Gate: "xor", Backend: "Micromagnetic"}, with(xor, func(k *Key) { k.Backend, k.Spec = Micromagnetic, "reduced" })},
		{Request{Gate: "xor", Backend: "micromagnetic"}, with(xor, func(k *Key) { k.Backend, k.Spec = Micromagnetic, "reduced" })}, // swtables
		{Request{Gate: "xor", Backend: "MICROMAG", Spec: "paper"}, with(xor, func(k *Key) { k.Backend = Micromagnetic })},
		{Request{Gate: "xor", Spec: "reduced"}, with(xor, func(k *Key) { k.Spec = "reduced" })},
		{Request{Gate: "xor", Spec: "Paper-Micromag"}, with(xor, func(k *Key) { k.Spec = "paper-micromag" })},
		{Request{Gate: "xor", Material: "yig"}, with(xor, func(k *Key) { k.Material = "yig" })},
		{Request{Gate: "xor", Material: "Permalloy"}, with(xor, func(k *Key) { k.Material = "permalloy" })},
	} {
		got, err := Resolve(tc.req)
		if err != nil || got != tc.want {
			t.Errorf("Resolve(%+v) = %+v, %v; want %+v", tc.req, got, err, tc.want)
		}
		// A canonical key is a fixed point.
		if again, err := Resolve(Request(got)); err != nil || again != got {
			t.Errorf("Resolve(%+v) = %+v, %v; canonical keys must resolve to themselves", got, again, err)
		}
	}

	for _, tc := range []struct {
		req  Request
		want error
	}{
		{Request{Gate: "nand"}, layout.ErrUnknownGate},
		{Request{Gate: "maj 3"}, layout.ErrUnknownGate},
		{Request{Gate: "xor", Backend: "analog"}, layout.ErrUnknownComponent},
		{Request{Gate: "xor", Spec: "huge"}, layout.ErrUnknownComponent},
		{Request{Gate: "xor", Material: "unobtainium"}, layout.ErrUnknownComponent},
	} {
		if _, err := Resolve(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("Resolve(%+v) = %v, want %v", tc.req, err, tc.want)
		}
	}
}

// TestResolveMode pins the API serving modes: the engine mode, the
// echoed label and the backend each implies, and the conflicts.
func TestResolveMode(t *testing.T) {
	for _, tc := range []struct {
		mode, backend string
		want          engine.Mode
		label, be     string
	}{
		{"", "", engine.ModeDirect, "behavioral", ""},
		{"", "Micromag", engine.ModeDirect, "micromag", "Micromag"},
		{"", "micromagnetic", engine.ModeDirect, "micromag", "micromagnetic"},
		{"behavioral", "", engine.ModeDirect, "behavioral", Behavioral},
		{"Behavioral", "behavioral", engine.ModeDirect, "behavioral", Behavioral},
		{"micromag", "", engine.ModeDirect, "micromag", Micromagnetic},
		{"micromagnetic", "MICROMAG", engine.ModeDirect, "micromag", Micromagnetic},
		{"auto", "", engine.ModeAuto, "auto", Micromagnetic},
		{"AUTO", "behavioral", engine.ModeAuto, "auto", "behavioral"},
		{"surrogate", "", engine.ModeSurrogateOnly, "surrogate", Micromagnetic},
	} {
		m, label, be, err := ResolveMode(tc.mode, tc.backend)
		if err != nil || m != tc.want || label != tc.label || be != tc.be {
			t.Errorf("ResolveMode(%q, %q) = %q, %q, %q, %v; want %q, %q, %q",
				tc.mode, tc.backend, m, label, be, err, tc.want, tc.label, tc.be)
		}
	}
	for _, tc := range [][2]string{
		{"warp", ""},
		{"direct", ""},
		{"behavioral", "micromag"},
		{"micromag", "behavioral"},
		{"micromag", "analog"},
	} {
		if _, _, _, err := ResolveMode(tc[0], tc[1]); !errors.Is(err, layout.ErrUnknownComponent) {
			t.Errorf("ResolveMode(%q, %q) = %v, want ErrUnknownComponent", tc[0], tc[1], err)
		}
	}
}

// TestPublishedVocabulary: the lists GET /v1/spec publishes keep their
// names and order, every listed name resolves, and the material list is
// exactly material.Presets.
func TestPublishedVocabulary(t *testing.T) {
	for _, tc := range []struct{ got, want []string }{
		{Gates, []string{"maj3", "maj3single", "xor", "maj5"}},
		{Modes, []string{"auto", "surrogate", "micromag", "behavioral"}},
		{Backends, []string{"behavioral", "micromag"}},
		{Specs, []string{"paper", "paper-micromag", "reduced"}},
		{Materials, []string{"fecob", "yig", "permalloy"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("published %v, want %v", tc.got, tc.want)
		}
	}
	for _, g := range Gates {
		if k, err := Resolve(Request{Gate: g}); err != nil || k.Gate != g {
			t.Errorf("gate %q resolves to %+v, %v", g, k, err)
		}
	}
	for _, b := range Backends {
		if _, err := Resolve(Request{Backend: b}); err != nil {
			t.Errorf("backend %q: %v", b, err)
		}
	}
	for _, s := range Specs {
		if k, err := Resolve(Request{Spec: s}); err != nil || k.Spec != s {
			t.Errorf("spec %q resolves to %+v, %v", s, k, err)
		}
	}
	for _, m := range Modes {
		if _, _, _, err := ResolveMode(m, ""); err != nil {
			t.Errorf("mode %q: %v", m, err)
		}
	}
	presets := material.Presets()
	if len(Materials) != len(presets) {
		t.Errorf("materials %v, presets %v", Materials, presets)
	}
	for _, m := range Materials {
		if _, ok := presets[m]; !ok {
			t.Errorf("material %q is not a preset", m)
		}
		if k, err := Resolve(Request{Material: m}); err != nil || k.Material != m {
			t.Errorf("material %q resolves to %+v, %v", m, k, err)
		}
	}
}

// TestMemoIdentity: equal keys share one backend; any different key
// component builds a different one; failed builds are not stored.
func TestMemoIdentity(t *testing.T) {
	var memo Memo
	get := func(r Request) core.Backend {
		t.Helper()
		k, err := Resolve(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := memo.Get(k)
		if err != nil {
			t.Fatalf("Get(%+v): %v", k, err)
		}
		return b
	}
	xor := get(Request{Gate: "xor"})
	if get(Request{Gate: "XOR", Backend: "behavioral", Spec: "paper", Material: "fecob"}) != xor {
		t.Error("two spellings of one key built different backends")
	}
	seen := map[core.Backend]bool{xor: true}
	for _, r := range []Request{
		{Gate: "maj3"},
		{Gate: "xor", Spec: "reduced"},
		{Gate: "xor", Material: "yig"},
		{Gate: "xor", Backend: "micromag"},
	} {
		b := get(r)
		if seen[b] {
			t.Errorf("%+v shares a backend with another key", r)
		}
		seen[b] = true
	}
	if b := get(Request{Gate: "xor", Backend: "micromag"}); b.Name() != Micromagnetic {
		t.Errorf("micromag key built %s", b.Name())
	}

	n := memo.Len()
	// Resolves, but permalloy has no PMA: the micromagnetic build fails.
	k, err := Resolve(Request{Gate: "xor", Backend: "micromag", Material: "permalloy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Get(k); err == nil {
		t.Error("permalloy micromagnetic backend built")
	}
	if _, err := memo.Get(Key{Gate: "xor", Backend: "analog"}); err == nil {
		t.Error("a key Resolve cannot produce built")
	}
	if memo.Len() != n {
		t.Errorf("failed builds grew the memo from %d to %d entries", n, memo.Len())
	}
}

// TestEvaluator: the shared job evaluator answers every case under the
// backend's fingerprint in each job serving mode and surfaces
// resolution and mode errors.
func TestEvaluator(t *testing.T) {
	ev := Evaluator(engine.New(engine.WithWorkers(2)), &Memo{})
	cases := [][]bool{{false, false}, {true, false}}
	b, err := Key{Gate: "xor", Backend: Behavioral, Spec: "paper", Material: "fecob"}.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := b.(core.Fingerprinter).Fingerprint()
	for _, mode := range []string{"", "Direct", "auto"} {
		fp, out, err := ev(context.Background(), fleet.JobSpec{Gate: "xor", Mode: mode}, cases)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if fp != want {
			t.Errorf("mode %q: fingerprint %q, want %q", mode, fp, want)
		}
		if len(out) != len(cases) || out[1].Source == "" || len(out[1].Outputs) == 0 {
			t.Errorf("mode %q: outcomes %+v", mode, out)
		}
	}
	// No surrogate is admitted, so a surrogate-only job cannot answer.
	if _, _, err := ev(context.Background(), fleet.JobSpec{Gate: "xor", Mode: "surrogate"}, cases); !errors.Is(err, engine.ErrSurrogateUnavailable) {
		t.Errorf("surrogate job: %v, want ErrSurrogateUnavailable", err)
	}
	for _, spec := range []fleet.JobSpec{{Gate: "bogus"}, {Gate: "xor", Mode: "psychic"}, {Gate: "xor", Mode: "micromag"}} {
		if _, _, err := ev(context.Background(), spec, cases); err == nil {
			t.Errorf("%+v evaluated without error", spec)
		}
	}
}

// majorityKeys is every Majority micromagnetic key in the published
// vocabulary, whether or not it builds.
func majorityKeys() []Key {
	var keys []Key
	for _, g := range Gates {
		for _, s := range Specs {
			for _, mat := range Materials {
				if k := (Key{Gate: g, Backend: Micromagnetic, Spec: s, Material: mat}); k.Kind() != core.XOR {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

// TestI3Trims pins the committed trim table, and generates it: every
// Majority micromagnetic key that builds has an entry, no XOR key has
// one, and each entry equals what CalibrateI3 measures on a trim-0
// build of its key. A mismatch logs the i3Trims line to paste.
func TestI3Trims(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates every Majority preset: about a minute of solver time")
	}
	for k, trim := range i3Trims {
		if k.Gate == "xor" {
			t.Errorf("%+v: XOR has no I3, but i3Trims lists %v", k, trim)
		}
	}
	builds := 0
	for _, k := range majorityKeys() {
		m, err := k.Micromagnetic(core.WithI3PhaseTrim(0))
		if err != nil {
			continue
		}
		builds++
		t.Run(k.Gate+"/"+k.Spec+"/"+k.Material, func(t *testing.T) {
			t.Parallel()
			got, err := m.CalibrateI3()
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := i3Trims[k]; !ok || got != want {
				t.Errorf("i3Trims lists %v (present %v), CalibrateI3 measures %v; the entry reads\n\t{%q, Micromagnetic, %q, %q}: %v,",
					want, ok, got, k.Gate, k.Spec, k.Material, got)
			}
		})
	}
	if len(i3Trims) != builds {
		t.Errorf("i3Trims has %d entries, but %d Majority micromagnetic keys build", len(i3Trims), builds)
	}
}

// TestBuildTrimFingerprint: the job path (Key.Build with a process's
// options) and the segment path (Key.Micromagnetic) build the same
// trimmed device for every Majority key, and the trim re-keys it away
// from the uncalibrated build.
func TestBuildTrimFingerprint(t *testing.T) {
	for _, k := range majorityKeys() {
		m, err := k.Micromagnetic()
		if err != nil {
			continue
		}
		b, err := k.Build(Options{Probe: true, Health: true})
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		untrimmed, err := k.Micromagnetic(core.WithI3PhaseTrim(0))
		if err != nil {
			t.Fatal(err)
		}
		fp, _ := m.Fingerprint()
		if got, _ := b.(core.Fingerprinter).Fingerprint(); got != fp {
			t.Errorf("%+v: Build fingerprint %s, Micromagnetic %s", k, got, fp)
		}
		if raw, _ := untrimmed.Fingerprint(); raw == fp {
			t.Errorf("%+v: the trimmed and untrimmed builds share fingerprint %s", k, fp)
		}
	}
}

// TestFingerprintPins pins the fingerprint of every micromagnetic
// preset, with its committed I3 trim, to the hex string it had when the
// solver's fixed timing and absorber settings became package constants.
// Disk stores, checkpoint manifests and history records are keyed by
// these strings, so any change to the canonical string a fingerprint
// hashes shows up here as a re-key of stored answers.
func TestFingerprintPins(t *testing.T) {
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key{"maj3", Micromagnetic, "reduced", "fecob"}, "a4f8d846670d8f991d3961e5c75a55d0"},
		{Key{"maj3single", Micromagnetic, "reduced", "fecob"}, "419ece6ad2c419514cd8293fa9b19b73"},
		{Key{"xor", Micromagnetic, "reduced", "fecob"}, "98dbf3b4f066c6f07ff023d15fefddfa"},
		{Key{"maj5", Micromagnetic, "reduced", "fecob"}, "2647a93f0f9d21621cebd547b4161e00"},
		{Key{"maj3", Micromagnetic, "paper-micromag", "fecob"}, "74153bdfd70f6ff10b12af78d2ebab87"},
		{Key{"maj3single", Micromagnetic, "paper-micromag", "fecob"}, "ce9961a616083d9288b3153350ef9b20"},
		{Key{"xor", Micromagnetic, "paper-micromag", "fecob"}, "9ccc50540f99143e7c51935833d47c9f"},
		{Key{"maj5", Micromagnetic, "paper-micromag", "fecob"}, "d5d15045a5df86de318851f55c51d6c8"},
		{Key{"maj3", Micromagnetic, "paper", "fecob"}, "d9a75e72fcc80fb2f9ff74030cc44e26"},
		{Key{"maj3single", Micromagnetic, "paper", "fecob"}, "88edc361a6255d2bb9f927d69a27fc41"},
		{Key{"xor", Micromagnetic, "paper", "fecob"}, "f4cf31d945574a0ee8d3587499049c74"},
		{Key{"maj5", Micromagnetic, "paper", "fecob"}, "3188b221c305a422441e552413f12da8"},
	} {
		m, err := tc.key.Micromagnetic()
		if err != nil {
			t.Fatalf("%+v: %v", tc.key, err)
		}
		if got, ok := m.Fingerprint(); !ok || got != tc.want {
			t.Errorf("%+v: Fingerprint() = %q, %v; want %q", tc.key, got, ok, tc.want)
		}
	}
}

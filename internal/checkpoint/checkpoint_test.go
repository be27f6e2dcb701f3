package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spinwave/internal/grid"
	"spinwave/internal/journal"
	"spinwave/internal/vec"
)

func testMeshField() (grid.Mesh, vec.Field) {
	mesh := grid.MustMesh(6, 4, 5e-9, 5e-9, 1e-9)
	m := vec.NewField(mesh.NCells())
	for i := range m {
		m[i] = vec.V(math.Sin(float64(i)*0.31), math.Cos(float64(i)*0.77), 1.0/3.0)
	}
	return mesh, m
}

func testManifest(step int) Manifest {
	return Manifest{
		Run: "rdeadbeef00000000", Gate: "xor", Fingerprint: "fp-abc", Inputs: "10",
		Step: step, TotalSteps: 1000, SimTime: float64(step) * 1.25e-14, Dt: 1.25e-14,
		Scheme: "rk4",
		Probes: []ProbeState{{
			Name:  "O1",
			Times: []float64{1e-12, 2e-12}, MX: []float64{0.1, 0.2},
			MY: []float64{0.3, 0.4}, MZ: []float64{0.5, 0.6},
		}},
	}
}

// captureSink records journal events for assertions.
type captureSink struct{ events []journal.Event }

func (c *captureSink) Emit(e journal.Event) { c.events = append(c.events, e) }

func TestSaveLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mesh, m := testMeshField()
	snap, err := Save(dir, testManifest(240), mesh, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ManifestFile != "ck-000000000240.json" {
		t.Errorf("manifest file = %q", snap.ManifestFile)
	}
	if snap.Manifest.MagFile != "ck-000000000240.ovf" || len(snap.Manifest.MagSHA256) != 64 {
		t.Errorf("manifest = %+v", snap.Manifest)
	}

	st, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no checkpoint loaded")
	}
	if st.Manifest.Step != 240 || st.Manifest.Dt != 1.25e-14 || st.Manifest.SimTime != 240*1.25e-14 {
		t.Errorf("manifest = %+v", st.Manifest)
	}
	if st.Manifest.Fingerprint != "fp-abc" || st.Manifest.Inputs != "10" {
		t.Errorf("identity fields = %+v", st.Manifest)
	}
	for i := range m {
		if st.M[i] != m[i] {
			t.Fatalf("cell %d not bit-identical: %v != %v", i, st.M[i], m[i])
		}
	}
	p := st.Manifest.Probes[0]
	if p.Name != "O1" || p.Times[1] != 2e-12 || p.MX[0] != 0.1 {
		t.Errorf("probe state = %+v", p)
	}
}

func TestLatestEmptyOrMissingDir(t *testing.T) {
	st, err := Latest(filepath.Join(t.TempDir(), "nope"))
	if err != nil || st != nil {
		t.Fatalf("missing dir: st=%v err=%v, want nil,nil", st, err)
	}
	st, err = Latest(t.TempDir())
	if err != nil || st != nil {
		t.Fatalf("empty dir: st=%v err=%v, want nil,nil", st, err)
	}
	if _, err := Latest(""); err == nil {
		t.Error("empty dir name accepted")
	}
}

// TestLatestQuarantinesCorruptAndFallsBack is the durability pin: a
// truncated OVF, a mangled manifest, and a manifest whose digest no
// longer matches must each be renamed aside with a journaled alert
// while resume proceeds from the newest intact snapshot.
func TestLatestQuarantinesCorruptAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	mesh, m := testMeshField()
	if _, err := Save(dir, testManifest(100), mesh, m, 10); err != nil {
		t.Fatal(err)
	}
	m2 := vec.NewField(len(m))
	m2.Copy(m)
	m2[0] = vec.V(0.9, 0.1, 0.2)
	if _, err := Save(dir, testManifest(200), mesh, m2, 10); err != nil {
		t.Fatal(err)
	}
	// Truncate the newest snapshot's OVF mid-file.
	ovfPath := filepath.Join(dir, "ck-000000000200.ovf")
	data, err := os.ReadFile(ovfPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ovfPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	sink := &captureSink{}
	detach := journal.Default().Attach(sink)
	st, err := Latest(dir)
	detach()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Manifest.Step != 100 {
		t.Fatalf("expected fallback to step 100, got %+v", st)
	}
	if st.M[0] != m[0] {
		t.Errorf("fallback field wrong: %v != %v", st.M[0], m[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "ck-000000000200.json.quarantined")); err != nil {
		t.Error("corrupt manifest not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, "ck-000000000200.ovf.quarantined")); err != nil {
		t.Error("corrupt OVF not quarantined")
	}
	found := false
	for _, e := range sink.events {
		if e.Name == "alert" && e.Fields["rule"] == "checkpoint.quarantine" {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint.quarantine alert journaled")
	}
}

func TestLatestQuarantinesBadManifest(t *testing.T) {
	dir := t.TempDir()
	mesh, m := testMeshField()
	if _, err := Save(dir, testManifest(50), mesh, m, 10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ck-000000000099.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Latest(dir)
	if err != nil || st == nil || st.Manifest.Step != 50 {
		t.Fatalf("st=%+v err=%v, want step-50 fallback", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck-000000000099.json.quarantined")); err != nil {
		t.Error("bad manifest not quarantined")
	}
}

func TestSavePrunes(t *testing.T) {
	dir := t.TempDir()
	mesh, m := testMeshField()
	for _, step := range []int{10, 20, 30} {
		if _, err := Save(dir, testManifest(step), mesh, m, 2); err != nil {
			t.Fatal(err)
		}
	}
	if steps := manifestSteps(dir); len(steps) != 2 || steps[0] != 20 || steps[1] != 30 {
		t.Errorf("steps after prune = %v, want [20 30]", steps)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck-000000000010.ovf")); !os.IsNotExist(err) {
		t.Error("pruned snapshot's OVF still on disk")
	}
}

func TestParseManifestRejects(t *testing.T) {
	mesh, m := testMeshField()
	dir := t.TempDir()
	snap, err := Save(dir, testManifest(1), mesh, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, snap.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	cases := map[string]string{
		"unknown field":   strings.Replace(string(good), `"version"`, `"surprise": 1, "version"`, 1),
		"trailing data":   string(good) + "{}",
		"bad version":     strings.Replace(string(good), `"version": 1`, `"version": 99`, 1),
		"escaping path":   strings.Replace(string(good), `"mag_file": "ck-000000000001.ovf"`, `"mag_file": "../../etc/passwd"`, 1),
		"short digest":    strings.Replace(string(good), snap.Manifest.MagSHA256, "abcd", 1),
		"negative step":   strings.Replace(string(good), `"step": 1`, `"step": -4`, 1),
		"not json":        "]][[",
		"zero dt":         strings.Replace(string(good), `"dt_s": 1.25e-14`, `"dt_s": 0`, 1),
		"lopsided probes": strings.Replace(string(good), `"mx": [`, `"mx": [7,`, 1),
	}
	for name, doc := range cases {
		if _, err := ParseManifest([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Dir: "x"}.WithDefaults()
	if !c.Enabled() || c.EverySteps != 1000 || c.Keep != 2 {
		t.Errorf("defaults = %+v", c)
	}
	if (Config{}).Enabled() {
		t.Error("empty config enabled")
	}
}

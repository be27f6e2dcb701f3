package llg_test

// Integration of the exact Newell-tensor demag with the LLG solver:
// the paper's film is thin enough that the local approximation is good,
// and these tests quantify exactly how good on solver-scale systems.
// The local runs take the production fused core; the full-demag runs
// take the llgref oracle, which adds the convolution after the field.

import (
	"math"
	"testing"

	"spinwave/internal/demag"
	"spinwave/internal/detect"
	"spinwave/internal/excite"
	"spinwave/internal/grid"
	"spinwave/internal/llg"
	"spinwave/internal/llg/llgref"
	"spinwave/internal/material"
	"spinwave/internal/vec"
)

// fmrFrequency relaxes nothing fancy: drive-free ringdown of a slightly
// tilted film patch, lock-in over the trailing window at the candidate
// frequency grid via spectrum peak.
func fmrFrequency(t *testing.T, full bool) float64 {
	t.Helper()
	mesh := grid.MustMesh(24, 24, 5e-9, 5e-9, 1e-9)
	mat := material.FeCoB()
	mat.Alpha = 0.002 // underdamped ringdown
	s, err := llg.New(mesh, grid.FullRegion(mesh), mat, llg.StableDt(mesh, mat))
	if err != nil {
		t.Fatal(err)
	}
	run := s.Run
	if full {
		k, err := demag.NewKernel(mesh, mat.Ms)
		if err != nil {
			t.Fatal(err)
		}
		run = llgref.New(s, k).Run
	}
	s.TiltM(0.05)
	probe, err := detect.NewProbe("film", grid.FullRegion(mesh).Indices())
	if err != nil {
		t.Fatal(err)
	}
	run(1.5e-9, func(step int) bool {
		if step%4 == 0 {
			probe.Sample(s.Time, s.M)
		}
		return true
	})
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	// Count mean-crossings of <mx> to estimate the precession frequency.
	mx := probe.MX()
	times := probe.Times()
	crossings := 0
	var firstT, lastT float64
	for i := 1; i < len(mx); i++ {
		if mx[i-1] < 0 && mx[i] >= 0 {
			if crossings == 0 {
				firstT = times[i]
			}
			lastT = times[i]
			crossings++
		}
	}
	if crossings < 3 {
		t.Fatalf("too few oscillations: %d", crossings)
	}
	return float64(crossings-1) / (lastT - firstT)
}

func TestFullDemagFMRCloseToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	fLocal := fmrFrequency(t, false)
	fFull := fmrFrequency(t, true)
	// The finite 120 nm patch has Nzz_eff < 1, so the full-demag FMR
	// frequency must sit ABOVE the local-approximation value (the demag
	// field opposing the anisotropy is weaker), but within ~25% for this
	// size.
	if fFull <= fLocal {
		t.Errorf("full-demag FMR %.3g not above local %.3g", fFull, fLocal)
	}
	if rel := (fFull - fLocal) / fLocal; rel > 0.6 {
		t.Errorf("full vs local FMR differ by %.0f%% — kernel suspect", 100*rel)
	}
	t.Logf("FMR: local %.2f GHz, full demag %.2f GHz", fLocal/1e9, fFull/1e9)
}

func TestFullDemagWavePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("micromagnetic integration test")
	}
	// A short strip with the exact demag still carries spin waves when
	// driven above its (higher) FMR; checks kernel stability inside the
	// time stepper.
	mesh := grid.MustMesh(96, 4, 5e-9, 5e-9, 1e-9)
	mat := material.FeCoB()
	s, err := llg.New(mesh, grid.FullRegion(mesh), mat, llg.StableDt(mesh, mat))
	if err != nil {
		t.Fatal(err)
	}
	k, err := demag.NewKernel(mesh, mat.Ms)
	if err != nil {
		t.Fatal(err)
	}
	ref := llgref.New(s, k)
	s.AddAbsorberTowards(mesh.SizeX(), mesh.SizeY()/2, 100e-9, 0.5)
	// Drive well above any plausible gap for this narrow strip.
	f := 25e9
	var cells []int
	for j := 0; j < mesh.Ny; j++ {
		cells = append(cells, mesh.Idx(2, j))
	}
	ant, err := excite.NewAntenna("src", cells, vec.UnitX, 2e-3, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ant.Env = excite.RampEnvelope(3 / f)
	s.Eval.Sources = append(s.Eval.Sources, ant)
	ref.Run(0.7e-9, nil)
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	maxAmp := 0.0
	for i := mesh.Idx(40, 1); i < mesh.Idx(70, 1); i++ {
		if a := math.Hypot(s.M[i].X, s.M[i].Y); a > maxAmp {
			maxAmp = a
		}
	}
	if maxAmp < 1e-5 {
		t.Errorf("no wave propagated under full demag: max %g", maxAmp)
	}
}

package core

import (
	"spinwave/internal/checkpoint"
	"spinwave/internal/grid"
	"spinwave/internal/health"
	"spinwave/internal/layout"
	"spinwave/internal/material"
	"spinwave/internal/probe"
)

// BehavioralOption customizes NewBehavioral beyond the positional
// gate/spec/material arguments.
type BehavioralOption func(*behavioralConfig)

type behavioralConfig struct {
	junctionLoss float64
	attLength    float64 // 0 = derive from the material dispersion
}

// WithJunctionLoss sets the amplitude transmission factor applied at each
// junction node, in (0, 1]. The default 0.9 models the scattering loss of
// an abrupt Y-junction.
func WithJunctionLoss(f float64) BehavioralOption {
	return func(c *behavioralConfig) { c.junctionLoss = f }
}

// WithAttenuationLength overrides the 1/e amplitude attenuation length
// (meters) instead of deriving it from the material's dispersion. Zero or
// +Inf disables attenuation.
func WithAttenuationLength(l float64) BehavioralOption {
	return func(c *behavioralConfig) { c.attLength = l }
}

// MicromagOption customizes NewMicromagnetic. Options are applied in
// order onto a default config (ReducedSpec geometry, FeCoB material).
type MicromagOption func(*micromagConfig)

// WithSpec sets the gate geometry (default layout.ReducedSpec).
func WithSpec(s layout.Spec) MicromagOption {
	return func(c *micromagConfig) { c.Spec = s }
}

// WithMaterial sets the film material (default material.FeCoB).
func WithMaterial(m material.Params) MicromagOption {
	return func(c *micromagConfig) { c.Mat = m }
}

// WithWorkers runs each transient's LLG stepping kernels on a persistent
// pool of n goroutines, banded over mesh rows. Trajectories are
// bit-identical for any worker count (see DESIGN.md §10).
func WithWorkers(n int) MicromagOption {
	return func(c *micromagConfig) { c.Workers = n }
}

// WithCellSize sets the square cell edge in meters (default λ/11).
func WithCellSize(d float64) MicromagOption {
	return func(c *micromagConfig) { c.CellSize = d }
}

// WithDriveField sets the antenna RF amplitude in Tesla (default 2 mT).
func WithDriveField(b float64) MicromagOption {
	return func(c *micromagConfig) { c.DriveField = b }
}

// WithTemperature enables the stochastic thermal field at T kelvin with
// the given noise seed.
func WithTemperature(t float64, seed int64) MicromagOption {
	return func(c *micromagConfig) { c.Temperature = t; c.Seed = seed }
}

// WithRegionMutator post-processes the rasterized material region (edge
// roughness, erosion, defects) before simulation — the §IV-D variability
// hook. A backend with a mutator is not cacheable by the engine (the
// function has no canonical identity).
func WithRegionMutator(f func(grid.Mesh, grid.Region) grid.Region) MicromagOption {
	return func(c *micromagConfig) { c.RegionMutator = f }
}

// WithI3PhaseTrim sets the I3 drive-phase trim in radians: a sub-λ
// trim of the d2 trunk length, which CalibrateI3 measures.
func WithI3PhaseTrim(rad float64) MicromagOption {
	return func(c *micromagConfig) { c.I3PhaseTrim = rad }
}

// WithMeasurePeriods sets the lock-in window length in drive periods.
func WithMeasurePeriods(n int) MicromagOption {
	return func(c *micromagConfig) { c.MeasurePeriods = n }
}

// WithProbes configures the in-situ flight recorder (DESIGN.md §11).
// Pass probe.Config{Enabled: true} for the default cadences; each run
// then publishes its recorder in probe.Default() under the run ID.
// Probing never alters the trajectory and does not affect the backend's
// cache fingerprint.
func WithProbes(pc probe.Config) MicromagOption {
	return func(c *micromagConfig) { c.Probes = pc }
}

// WithHealth configures the numerical health monitor (DESIGN.md §12).
// Pass health.Config{Enabled: true} for the default rules and
// thresholds; each run then emits alert/health.verdict journal events
// and publishes its report in health.Default() under the run ID. Unless
// the abort policy stops a run, monitoring never alters the trajectory
// and does not affect the backend's cache fingerprint.
func WithHealth(hc health.Config) MicromagOption {
	return func(c *micromagConfig) { c.Health = hc }
}

// WithCheckpoint enables periodic checkpointing and exact resume for
// every logic-case run (DESIGN.md §15). Pass checkpoint.Config with at
// least Dir set; Resume continues from the newest valid snapshot in Dir
// with a bit-identical trajectory, and StopAtStep pauses a run at a
// segment boundary with checkpoint.ErrPaused. Checkpointing never alters
// the trajectory and does not affect the backend's cache fingerprint.
func WithCheckpoint(cc checkpoint.Config) MicromagOption {
	return func(c *micromagConfig) { c.Checkpoint = cc }
}

// WithDtScale multiplies the default LLG time step, twice
// llg.StableDt's estimate (default 1; EXPERIMENTS.md E-DT). The reduced
// tables still decode up to about 1.75 and read wrong from 2; far
// larger values (health-smoke's 20) destabilize the integrator; values
// < 1 trade speed for accuracy. DtScale changes the trajectory, so it
// is part of the cache fingerprint.
func WithDtScale(s float64) MicromagOption {
	return func(c *micromagConfig) { c.DtScale = s }
}

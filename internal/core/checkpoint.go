package core

import (
	"fmt"
	"sort"

	"spinwave/internal/checkpoint"
	"spinwave/internal/detect"
	"spinwave/internal/journal"
	"spinwave/internal/llg"
)

// restoreFrom applies one loaded checkpoint to a freshly built solver:
// identity guards first (a resume is only bit-identical for the exact
// same configuration and logic case), then the magnetization, integrator
// counters and probe sample series.
func (m *Micromagnetic) restoreFrom(s *llg.Solver, probes map[string]*detect.Probe, st *checkpoint.State, fp string, inputs []bool) error {
	man := st.Manifest
	if man.Fingerprint != "" && fp != "" && man.Fingerprint != fp {
		return fmt.Errorf("core: checkpoint was written by a different configuration (fingerprint %s, this backend %s)", man.Fingerprint, fp)
	}
	if man.Inputs != "" && man.Inputs != inputString(inputs) {
		return fmt.Errorf("core: checkpoint is for inputs %q, this run drives %q", man.Inputs, inputString(inputs))
	}
	if st.Mesh.NCells() != s.Mesh.NCells() || len(st.M) != s.Mesh.NCells() {
		return fmt.Errorf("core: checkpoint holds a %d-cell field on a %d-cell mesh, this run steps %d cells (%s)",
			len(st.M), st.Mesh.NCells(), s.Mesh.NCells(), m.domainName(s))
	}
	if err := s.Restore(st.M, man.SimTime, man.Step, man.Dt); err != nil {
		return err
	}
	for _, ps := range man.Probes {
		p, ok := probes[ps.Name]
		if !ok {
			return fmt.Errorf("core: checkpoint probe %q has no detector in this run", ps.Name)
		}
		if err := p.Restore(ps.Times, ps.MX, ps.MY, ps.MZ); err != nil {
			return err
		}
	}
	return nil
}

// domainName names the mesh a solver steps, for error messages.
func (m *Micromagnetic) domainName(s *llg.Solver) string {
	if s.Mesh.NCells() == m.Mesh.NCells() {
		return "the whole film"
	}
	return "the mirror half of the film"
}

// saveCheckpoint commits one snapshot at absolute step abs and journals
// it. Runs on the stepping goroutine between solver steps, so the solver
// state it captures is exactly the committed state at abs.
func (m *Micromagnetic) saveCheckpoint(ck checkpoint.Config, s *llg.Solver, probes map[string]*detect.Probe, runID, fp string, abs, total int, inputs []bool) error {
	man := checkpoint.Manifest{
		Run:         runID,
		Gate:        m.kind.String(),
		Fingerprint: fp,
		Inputs:      inputString(inputs),
		Step:        abs,
		TotalSteps:  total,
		SimTime:     s.Time,
		Dt:          s.Dt,
		Scheme:      s.Scheme.String(),
		Trace:       ck.Trace,
		Probes:      probeStates(probes),
	}
	snap, err := checkpoint.Save(ck.Dir, man, s.Mesh, s.M, ck.Keep)
	if err != nil {
		return fmt.Errorf("core: checkpoint save: %w", err)
	}
	journal.Default().Emit(runID, "checkpoint.save",
		journal.F("dir", ck.Dir),
		journal.F("file", snap.ManifestFile),
		journal.F("step", abs),
		journal.F("total_steps", total),
		journal.F("sim_time_s", s.Time))
	if ck.OnSnapshot != nil {
		ck.OnSnapshot(ck.Dir, snap)
	}
	return nil
}

// probeStates captures every detector probe's sample series, sorted by
// name so manifests are deterministic.
func probeStates(probes map[string]*detect.Probe) []checkpoint.ProbeState {
	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]checkpoint.ProbeState, 0, len(names))
	for _, name := range names {
		p := probes[name]
		out = append(out, checkpoint.ProbeState{
			Name:  name,
			Times: append([]float64(nil), p.Times()...),
			MX:    append([]float64(nil), p.MX()...),
			MY:    append([]float64(nil), p.MY()...),
			MZ:    append([]float64(nil), p.MZ()...),
		})
	}
	return out
}

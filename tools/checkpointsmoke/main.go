// Command checkpointsmoke is the CI gate for checkpoint/resume
// (DESIGN.md §15): it builds the real swsim binary, records a golden
// uninterrupted single-case run with full-precision JSON readouts, then
// runs the same case with checkpointing on and SIGKILLs the process the
// moment the first manifest commits — a crash with no warning, the
// failure mode checkpoints exist for. A third run with -resume must
// continue from the newest snapshot and land on readouts byte-identical
// to the golden run's. The resumed run carries the health monitor
// (-health): its journal must record a healthy verdict, and monitoring
// must not alter the trajectory.
//
//	go run ./tools/checkpointsmoke -journal checkpoint.jsonl
//
// The resumed run's journal is left behind for journalcheck and for the
// checkpoint.resume and verdict greps in the checkpoint-smoke make
// target; the resumed run's manifest is copied to -keep-manifest for CI
// artifact upload.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("checkpointsmoke: ")
	journalPath := flag.String("journal", "checkpoint.jsonl", "resumed run's journal output (validated by journalcheck afterwards)")
	keepManifest := flag.String("keep-manifest", "", "copy the newest checkpoint manifest here after the resume (CI artifact)")
	dtScale := flag.Float64("dt-scale", 0.5, "time-step scale; < 1 stretches the transient so the kill window is wide")
	timeout := flag.Duration("timeout", 3*time.Minute, "overall deadline for the smoke run")
	flag.Parse()

	if err := run(*journalPath, *keepManifest, *dtScale, *timeout); err != nil {
		log.Fatal(err)
	}
}

func run(journalPath, keepManifest string, dtScale float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	tmp, err := os.MkdirTemp("", "checkpointsmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the real binary: the smoke exercises the shipped entrypoint.
	bin := filepath.Join(tmp, "swsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/swsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building ./cmd/swsim: %w", err)
	}

	dts := fmt.Sprintf("%g", dtScale)
	common := []string{"-gate", "xor", "-inputs", "10", "-dt-scale", dts}

	// Golden uninterrupted run. Checkpointing observes without altering
	// the trajectory, so this plain run is the reference the resumed run
	// must match byte for byte.
	golden := filepath.Join(tmp, "golden.json")
	cmd := exec.Command(bin, append(common, "-readout-json", golden)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	log.Printf("golden run complete")

	// Checkpointed run, SIGKILLed as soon as the first manifest commits:
	// no SIGTERM grace, no flush — the crash the checkpoints are for.
	ckDir := filepath.Join(tmp, "ckpt")
	cmd = exec.Command(bin, append(common,
		"-checkpoint", ckDir, "-checkpoint-every", "200")...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	killed := false
	for time.Now().Before(deadline) {
		if len(manifests(ckDir)) > 0 {
			if err := cmd.Process.Kill(); err != nil {
				return err
			}
			killed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Wait() //nolint:errcheck
	if !killed {
		return fmt.Errorf("no checkpoint manifest appeared in %s before the deadline", ckDir)
	}
	names := manifests(ckDir)
	if len(names) == 0 {
		return fmt.Errorf("killed the run but %s holds no committed manifest", ckDir)
	}
	log.Printf("killed checkpointed run mid-transient (SIGKILL), %d manifest(s) on disk", len(names))

	// Resume under the health monitor: must pick up the newest valid
	// snapshot and finish with the golden readouts exactly. swsim -health
	// exits non-zero on a violated verdict; the make target then requires
	// the journaled verdict to be healthy.
	resumed := filepath.Join(tmp, "resumed.json")
	cmd = exec.Command(bin, append(common,
		"-checkpoint", ckDir, "-checkpoint-every", "200", "-resume", "-health",
		"-readout-json", resumed, "-journal", journalPath)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}

	g, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	r, err := os.ReadFile(resumed)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, r) {
		return fmt.Errorf("resumed readouts differ from the golden run:\ngolden:  %s\nresumed: %s", g, r)
	}
	log.Printf("resumed run matches the golden readouts byte for byte")

	// The journal must show the resume actually happened (step > 0), not
	// a silent from-scratch restart.
	j, err := os.ReadFile(journalPath)
	if err != nil {
		return err
	}
	if !strings.Contains(string(j), `"event":"checkpoint.resume"`) {
		return fmt.Errorf("resumed run journaled no checkpoint.resume event")
	}

	if keepManifest != "" {
		names = manifests(ckDir)
		data, err := os.ReadFile(filepath.Join(ckDir, names[len(names)-1]))
		if err != nil {
			return err
		}
		if err := os.WriteFile(keepManifest, data, 0o644); err != nil {
			return err
		}
		log.Printf("kept manifest %s as %s", names[len(names)-1], keepManifest)
	}
	return nil
}

// manifests lists the committed checkpoint manifests in dir, ascending
// by step (the zero-padded names sort lexically).
func manifests(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "ck-") && strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

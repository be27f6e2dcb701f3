package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// header identifies a run: what was measured, on what, and how fast the
// host was at the time.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Window     float64 `json:"window_s"`
	Obs        string  `json:"obs"`
	// CalibMops is the fixed pure-Go calibration loop's rate in millions
	// of iterations per second, measured at the start of the run.
	// llg.ns_per_cell_step_norm divides by it, so runs on different hosts
	// compare.
	CalibMops float64 `json:"calib_mops"`
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate runs a fixed integer-and-float loop on the given number of
// goroutines for d and returns their summed rate in millions of
// iterations per second.
func calibrate(d time.Duration, threads int) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x, f := seed, 1.0
			iters := 0
			for time.Since(start) < d {
				for i := 0; i < 1<<16; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					f = f*0.9999999 + float64(x&1023)*1e-9
				}
				iters += 1 << 16
			}
			mu.Lock()
			total += iters
			calibSink += f + float64(x%7)
			mu.Unlock()
		}(88172645463325252 + uint64(t))
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds() / 1e6
}

// gitCommit returns the checkout's commit, or "unknown" outside a git
// repository. Git is kept from searching above the working directory.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newHeader(seed int64, window time.Duration, obs string) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Window:     window.Seconds(),
		Obs:        obs,
		CalibMops:  calibrate(time.Second, 1),
	}
}

// Command swfig regenerates the paper's figures.
//
//	swfig -figure 1 [-out dir]     Figure 1: spin-wave parameter profiles
//	swfig -figure 2                Figure 2: interference demonstration
//	swfig -figure 3 [-out dir]     Figure 3: MAJ3 gate geometry (PNG + stats)
//	swfig -figure 4 [-out dir]     Figure 4: XOR gate geometry
//	swfig -figure 5 -out dir       Figure 5: micromagnetic snapshots (a-h)
//
// Figure 5 runs the micromagnetic solver once per input pattern on the
// reduced-scale device (-full for paper dimensions; slow) and writes a
// PNG and an OVF 2.0 snapshot per panel, plus ASCII previews with -ascii.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"spinwave"
	"spinwave/internal/backendspec"
	"spinwave/internal/core"
	"spinwave/internal/layout"
	"spinwave/internal/ovf"
	"spinwave/internal/render"
	"spinwave/internal/report"
	"spinwave/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swfig: ")
	figure := flag.Int("figure", 5, "which figure to regenerate: 1, 2, 3, 4 or 5")
	out := flag.String("out", "figures", "output directory for PNG/OVF files")
	full := flag.Bool("full", false, "use the paper's full dimensions (slow)")
	ascii := flag.Bool("ascii", false, "also print ASCII previews to stdout")
	flag.Parse()

	switch *figure {
	case 1:
		figure1()
	case 2:
		figure2()
	case 3, 4:
		figureGeometry(*figure, *out)
	case 5:
		figure5(*out, *full, *ascii)
	default:
		log.Fatalf("unknown figure %d", *figure)
	}
}

// figure1 prints the two wave profiles of Figure 1: (a) φ=0, k=1 and
// (b) φ=π, k=3 (three times the wave number → one third the wavelength).
func figure1() {
	lambda := 55e-9
	profiles := []struct {
		label string
		lam   float64
		phase float64
		waves float64
	}{
		{"a) phi=0, k=1", lambda, 0, 2},
		{"b) phi=pi, k=3", lambda / 3, math.Pi, 6},
	}
	for _, p := range profiles {
		xs, ys, err := spinwave.WaveProfile(p.lam, 1, p.phase, p.waves, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (λ = %.1f nm)\n", p.label, p.lam*1e9)
		fmt.Print(sparkline(xs, ys))
		fmt.Println()
	}
}

// sparkline renders a wave profile as rows of a tiny ASCII plot.
func sparkline(xs, ys []float64) string {
	const rows = 9
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, len(ys))
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for c, y := range ys {
		r := int(math.Round((1 - (y+1)/2) * float64(rows-1)))
		grid[r][c] = '*'
	}
	outStr := ""
	for _, row := range grid {
		outStr += string(row) + "\n"
	}
	return outStr
}

// figure2 demonstrates constructive and destructive interference.
func figure2() {
	t := report.NewTable("Figure 2b: two-wave interference (equal amplitude and frequency)",
		"wave 1 phase", "wave 2 phase", "result amplitude", "interference")
	cases := []struct {
		p1, p2 float64
	}{{0, 0}, {math.Pi, math.Pi}, {0, math.Pi}, {math.Pi, 0}}
	for _, c := range cases {
		amp, _ := spinwave.Interfere(1, c.p1, 1, c.p2)
		kind := "constructive"
		if amp < 0.5 {
			kind = "destructive"
		}
		t.AddRow(fmt.Sprintf("%.2f", c.p1), fmt.Sprintf("%.2f", c.p2), fmt.Sprintf("%.2f", amp), kind)
	}
	fmt.Print(t.String())
}

// figureGeometry renders the Figure 3/4 gate geometry as a PNG mask and
// prints the dimension table.
func figureGeometry(fig int, outDir string) {
	spec := layout.PaperSpec()
	var l *layout.Layout
	var err error
	if fig == 3 {
		l, err = layout.BuildMAJ3(spec, false)
	} else {
		l, err = layout.BuildXOR(spec)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(l.String())
	t := report.NewTable("dimensions", "name", "value (nm)", "in λ")
	t.AddRow("λ", fmt.Sprintf("%.0f", spec.Lambda*1e9), "1")
	t.AddRow("w", fmt.Sprintf("%.0f", spec.Width*1e9), fmt.Sprintf("%.2f", spec.Width/spec.Lambda))
	t.AddRow("d1", fmt.Sprintf("%.0f", spec.D1()*1e9), fmt.Sprintf("%d", spec.D1N))
	if fig == 3 {
		t.AddRow("d2", fmt.Sprintf("%.0f", spec.D2()*1e9), fmt.Sprintf("%d", spec.D2N))
		t.AddRow("d3", fmt.Sprintf("%.0f", spec.D3()*1e9), fmt.Sprintf("%d", spec.D3N))
		t.AddRow("d4", fmt.Sprintf("%.0f", spec.D4()*1e9), fmt.Sprintf("%d", spec.D4N))
	} else {
		t.AddRow("d2 (stub)", fmt.Sprintf("%.0f", spec.XORStub*1e9), fmt.Sprintf("%.2f", spec.XORStub/spec.Lambda))
	}
	fmt.Print(t.String())

	mesh, err := l.Mesh(5e-9, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	region := l.Rasterize(mesh)
	// Render the mask: material cells at +1 along z.
	m := vec.NewField(mesh.NCells())
	for i, on := range region {
		if on {
			m[i] = vec.UnitZ
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("figure%d_geometry.png", fig))
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := render.WritePNG(f, mesh, region, m, render.MZ, render.Options{PixelSize: 2}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d material cells)\n", path, region.Count())
}

// figure5 regenerates the eight Figure 5 panels.
func figure5(outDir string, full, ascii bool) {
	spec := ""
	if full {
		spec = "paper-micromag"
	}
	k, err := backendspec.Resolve(backendspec.Request{Gate: "maj3", Backend: backendspec.Micromagnetic, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	m, err := k.Micromagnetic()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	panels := "abcdefgh"
	for ci, in := range core.EnumerateInputs(3) {
		field, mesh, region, err := m.Snapshot(in)
		if err != nil {
			log.Fatal(err)
		}
		base := filepath.Join(outDir, fmt.Sprintf("figure5%c_%s", panels[ci], report.Bits(in)))
		png, err := os.Create(base + ".png")
		if err != nil {
			log.Fatal(err)
		}
		if err := render.WritePNG(png, mesh, region, field, render.MX, render.Options{PixelSize: 2}); err != nil {
			log.Fatal(err)
		}
		png.Close()
		ovfFile, err := os.Create(base + ".ovf")
		if err != nil {
			log.Fatal(err)
		}
		if err := ovf.Write(ovfFile, mesh, field, fmt.Sprintf("MAJ3 FO2 %s", report.Bits(in))); err != nil {
			log.Fatal(err)
		}
		ovfFile.Close()
		fmt.Printf("panel %c: inputs %s -> %s.png/.ovf\n", panels[ci], report.Bits(in), base)
		if ascii {
			art, err := render.ASCII(mesh, region, field, render.MX, 110)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(art)
		}
	}
}

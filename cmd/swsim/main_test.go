package main

import (
	"testing"

	"spinwave"
)

func TestParseInputs(t *testing.T) {
	in, err := parseInputs(spinwave.MAJ3, "011")
	if err != nil {
		t.Fatal(err)
	}
	if in[0] || !in[1] || !in[2] {
		t.Errorf("parseInputs = %v", in)
	}
	if _, err := parseInputs(spinwave.MAJ3, "01"); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := parseInputs(spinwave.XOR, "0x"); err == nil {
		t.Error("non-binary accepted")
	}
}

func TestOrDefault(t *testing.T) {
	if got := orDefault("", spinwave.XOR); got != "00" {
		t.Errorf("XOR default = %q", got)
	}
	if got := orDefault("", spinwave.MAJ3); got != "000" {
		t.Errorf("MAJ default = %q", got)
	}
	if got := orDefault("11", spinwave.XOR); got != "11" {
		t.Errorf("explicit = %q", got)
	}
}

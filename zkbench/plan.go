package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fsio"
)

// planID is what the optimizer chose for one circuit: its row power,
// column count and gadget configuration. A pinned calibration makes it a
// function of the code alone, so every run of one set of runs must agree.
type planID struct {
	Circuit string `json:"circuit"`
	K       int    `json:"k"`
	Cols    int    `json:"cols"`
	Gadgets string `json:"gadgets"`
}

func planIDOf(p *core.Plan) planID {
	return planID{Circuit: p.Graph.Name, K: p.K, Cols: p.Config.NumCols, Gadgets: fmt.Sprintf("%+v", p.Config)}
}

// samePlans reports the first difference between two plan lists.
func samePlans(want, got []planID) error {
	if len(want) != len(got) {
		return fmt.Errorf("plan identity: %d circuits, recorded %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("plan identity: %s chose k=%d cols=%d %s, recorded k=%d cols=%d %s",
				got[i].Circuit, got[i].K, got[i].Cols, got[i].Gadgets, want[i].K, want[i].Cols, want[i].Gadgets)
		}
	}
	return nil
}

// checkPlanRecord compares plans with the record at path, which the first
// run of a build writes, so the record pins that run's choice for all
// later ones.
func checkPlanRecord(path string, plans []planID) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return writeJSONFile(path, plans)
	}
	if err != nil {
		return err
	}
	var want []planID
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("plan record %s: %w", path, err)
	}
	return samePlans(want, plans)
}

// writeJSONFile writes v as indented JSON, atomically, creating the parent
// directory.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, data, 0o644)
}

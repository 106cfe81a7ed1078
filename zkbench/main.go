// Command zkbench is the repository benchmark: it measures ZKML-Go end to
// end on three workloads and, in a separate traced run, layer by layer.
//
//	zkbench -workload mnist-kzg|dlrm-ipa|serve-mix -seed N -seconds S -trace 0|1
//
// Workloads:
//
//	mnist-kzg  in-process, one closed-loop caller: mnist on KZG at the CI
//	           circuit parameters (scale 5, lookup 9, cols 6..16)
//	dlrm-ipa   the same loop for dlrm-micro on IPA
//	serve-mix  zkmld over loopback HTTP at its default circuit flags, two
//	           closed-loop clients, equal shares of mnist, traced mnist,
//	           3-shard mnist and dlrm-micro requests
//
// Every run checks its outputs: each proof verifies on a verifier-only
// system (or /verify), tampered copies are rejected, public outputs lie
// within one quantization step of the float interpreter, and warm paths do
// no set-up work. Layouts are priced with the calibration pinned in this
// directory, and every run of one build must choose the same plans. The
// last line of standard output is the result as JSON; a run with any
// failed check exits 1 after printing it.
//
// Run it from the repository root through run.sh, which builds this
// program and zkmld first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/costmodel"
	"repro/zkml"
)

// args are the command-line settings of one run.
type args struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	work        string
	calibration string
	zkmld       string
	runDir      string
	build       string
}

// planRecord is the file pinning this workload's plans for the set of runs
// of one build: it is keyed by a digest of this executable, which links the
// library, so a checkout rebuilt from other sources starts a new record.
func (a args) planRecord() string {
	return filepath.Join(a.work, "plans", fmt.Sprintf("%s-%s.json", a.workload, a.build))
}

// buildDigest is a short digest of the running executable.
func buildDigest() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6]), nil
}

var libWorkloads = map[string]libWorkload{
	"mnist-kzg": {model: "mnist", backend: zkml.KZG},
	"dlrm-ipa":  {model: "dlrm-micro", backend: zkml.IPA},
}

// loadCalibration loads the pinned calibration; a file that fails
// validation fails the run rather than being recalibrated.
func loadCalibration(path string) (*costmodel.Calibration, error) {
	c, err := costmodel.LoadCalibration(path)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("pinned calibration %s: %w", path, err)
	}
	return c, nil
}

func main() {
	var a args
	var setupDir string
	flag.StringVar(&a.workload, "workload", "", "mnist-kzg, dlrm-ipa or serve-mix")
	flag.Int64Var(&a.seed, "seed", 1, "workload seed")
	flag.IntVar(&a.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&a.trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&a.work, "work", ".bench_build", "directory for stores, plan records and traces")
	flag.StringVar(&a.calibration, "calibration", "zkbench/calibration.json", "pinned cost-model calibration")
	flag.StringVar(&a.zkmld, "zkmld", "", "zkmld binary (serve-mix)")
	flag.StringVar(&setupDir, "setup-child", "", "compile and save into this store, print the set-up time, and exit")
	flag.Parse()
	if err := run(a, setupDir); err != nil {
		fmt.Fprintln(os.Stderr, "zkbench:", err)
		os.Exit(2)
	}
}

func run(a args, setupDir string) error {
	w, isLib := libWorkloads[a.workload]
	if !isLib && a.workload != "serve-mix" {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if a.seconds < 1 || (a.trace != 0 && a.trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", a.seconds, a.trace)
	}
	calib, err := loadCalibration(a.calibration)
	if err != nil {
		return err
	}
	if setupDir != "" {
		if !isLib {
			return fmt.Errorf("-setup-child applies to library workloads")
		}
		return setupChild(w, calib, setupDir)
	}
	if !isLib {
		if _, err := os.Stat(a.zkmld); err != nil {
			return fmt.Errorf("serve-mix needs the zkmld binary: %w", err)
		}
	}

	if a.build, err = buildDigest(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(a.work, "tmp"), 0o755); err != nil {
		return err
	}
	a.runDir, err = os.MkdirTemp(filepath.Join(a.work, "tmp"), a.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(a.runDir)

	h := hostFingerprint()
	var tr *tracer
	if a.trace == 1 {
		tr = newTracer()
	}
	var ms *metrics
	var t *tally
	var notes []string
	switch {
	case isLib && tr == nil:
		ms, t, notes, err = runLibrary(w, a, calib)
	case isLib:
		ms, t, notes, err = runLibraryTraced(w, a, calib, tr)
	default:
		ms, t, notes, err = runServe(a, calib, tr)
	}
	if err != nil {
		return err
	}
	notes = append([]string{fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q engine_workers=%d",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Workers),
		fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%d", a.workload, a.seed, a.seconds, a.trace)}, notes...)
	if tr != nil {
		path := filepath.Join(a.work, "traces", fmt.Sprintf("%s-seed%d.json", a.workload, a.seed))
		if err := tr.write(path, h); err != nil {
			return err
		}
		notes = append(notes, "spans: "+path)
	}
	if res := emit(ms, t, notes); !res.Correct {
		os.RemoveAll(a.runDir)
		os.Exit(1)
	}
	return nil
}

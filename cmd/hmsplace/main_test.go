package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runAsMain makes the test binary act as hmsplace when re-executed by run, so
// the CLI contract is tested without a separate go build.
const runAsMain = "HMSPLACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes hmsplace with args and returns its stdout and exit code.
func run(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &exit):
		t.Logf("hmsplace %v stderr:\n%s", args, stderr.Bytes())
		return stdout.Bytes(), exit.ExitCode()
	default:
		t.Fatalf("hmsplace %v: %v", args, err)
		return nil, 0
	}
}

// TestExitCodes pins the codes scripts branch on: 4 for an unknown kernel or
// tenant kernel, 3 for a search stopped by its budget, 1 for a number out of
// range (checked before training, in kernel and fleet mode alike).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	tenants := filepath.Join(dir, "tenants.txt")
	if err := os.WriteFile(tenants, []byte("tenant fft\ntenant nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("tenant fft\ntenant vecadd\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-kernel", "nope"}, exitUnknownName},
		{[]string{"-fleet", tenants}, exitUnknownName},
		{[]string{"-kernel", "spmv", "-full", "-budget", "5"}, exitPartial},
		{[]string{"-kernel", "fft", "-scale", "-3", "-full", "-json"}, 1},
		{[]string{"-kernel", "fft", "-scale", "0"}, 1},
		{[]string{"-kernel", "fft", "-top", "-2"}, 1},
		{[]string{"-kernel", "fft", "-full", "-budget", "-5"}, 1},
		{[]string{"-kernel", "fft", "-full", "-parallel", "-1"}, 1},
		{[]string{"-fleet", good, "-scale", "0"}, 1},
		{[]string{"-fleet", good, "-budget", "-5"}, 1},
		{[]string{"-fleet", good, "-parallel", "-2"}, 1},
		{[]string{"-fleet", good, "-top", "-1"}, 1},
	} {
		if _, code := run(t, tc.args...); code != tc.want {
			t.Errorf("hmsplace %v exited %d, want %d", tc.args, code, tc.want)
		}
	}
}

// TestGoldenStdout pins the table and JSON renderings byte for byte. The
// default mode's -json carries its candidate-list coverage, and mriq's tied
// predictions list in enumeration-index order for every worker count.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"spmv.golden", []string{"-kernel", "spmv"}},
		{"spmv_full_json_top1.golden", []string{"-kernel", "spmv", "-full", "-json", "-top", "1"}},
		{"spmv_json.golden", []string{"-kernel", "spmv", "-json"}},
		{"mriq.golden", []string{"-kernel", "mriq", "-parallel", "1"}},
		{"mriq.golden", []string{"-kernel", "mriq", "-parallel", "3"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, code := run(t, tc.args...)
		if code != 0 {
			t.Fatalf("hmsplace %v exited %d", tc.args, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("hmsplace %v stdout:\n%s\nwant (testdata/%s):\n%s", tc.args, got, tc.golden, want)
		}
	}
}

package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -engine name must fail before the server trains or loads
// anything: exit 2 with the documented list. "sconna-packed", the packed
// engine's former name, is unknown now that "sconna" runs it. The test
// re-runs its own binary as the command, with main taking over in the
// child.
func TestUnknownEngineExits2(t *testing.T) {
	if name := os.Getenv("SCONNASERVE_RUN_MAIN"); name != "" {
		os.Args = []string{"sconnaserve", "-engine", name, "-addr", "127.0.0.1:0"}
		flag.CommandLine = flag.NewFlagSet("sconnaserve", flag.ExitOnError)
		main()
		return
	}
	for _, name := range []string{"bogus", "sconna-packed"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownEngineExits2$")
		cmd.Env = append(os.Environ(), "SCONNASERVE_RUN_MAIN="+name)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-engine %s: err %v, want exit status 2; output:\n%s", name, err, out)
		}
		for _, want := range []string{`"` + name + `"`, strings.Join(engineNames, "|")} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("-engine %s output lacks %q:\n%s", name, want, out)
			}
		}
		if strings.Contains(string(out), "trained") {
			t.Fatalf("-engine %s trained a model before rejecting the name:\n%s", name, out)
		}
	}
}

// A model-building flag that would panic in nn.BuildSmallCNN, calibrate
// on no examples or train nothing must fail before any training: exit 2
// with a message naming the flag. -epochs 0 is fine when -weights
// supplies the weights; that child then fails later, on the missing
// file, with exit 1.
func TestBadBuildFlagsExit2(t *testing.T) {
	if args := os.Getenv("SCONNASERVE_BUILD_ARGS"); args != "" {
		os.Args = append([]string{"sconnaserve", "-addr", "127.0.0.1:0"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("sconnaserve", flag.ExitOnError)
		main()
		return
	}
	missing := filepath.Join(t.TempDir(), "missing.weights")
	for _, tc := range []struct {
		name, flag, args string
		code             int
	}{
		{"width-0", "width", "-width 0", 2},
		{"width-negative", "width", "-width -1", 2},
		{"train-0", "train", "-train 0", 2},
		{"epochs-0", "epochs", "-epochs 0", 2},
		{"epochs-negative", "epochs", "-epochs -1", 2},
		{"epochs-0-with-weights", "epochs", "-epochs 0 -weights " + missing, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestBadBuildFlagsExit2$")
			cmd.Env = append(os.Environ(), "SCONNASERVE_BUILD_ARGS="+tc.args)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.code {
				t.Fatalf("err %v, want exit status %d; output:\n%s", err, tc.code, out)
			}
			if named := strings.Contains(string(out), "-"+tc.flag+" "); named != (tc.code == 2) {
				t.Fatalf("message names -%s: %v, want %v; output:\n%s", tc.flag, named, tc.code == 2, out)
			}
			if strings.Contains(string(out), "trained") {
				t.Fatalf("trained a model before rejecting the flags:\n%s", out)
			}
		})
	}
}

// Every documented engine name builds a factory, so the up-front check
// and buildFactory cannot drift apart.
func TestEngineNamesBuild(t *testing.T) {
	for _, name := range engineNames {
		if _, err := buildFactory(name, 8, 64, 1); err != nil {
			t.Errorf("-engine %s: %v", name, err)
		}
	}
}

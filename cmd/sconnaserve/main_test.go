package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// An unknown -engine name must fail before the server trains or loads
// anything: exit 2 with the documented list. The test re-runs its own
// binary as the command, with main taking over in the child.
func TestUnknownEngineExits2(t *testing.T) {
	if os.Getenv("SCONNASERVE_RUN_MAIN") == "1" {
		os.Args = []string{"sconnaserve", "-engine", "bogus", "-addr", "127.0.0.1:0"}
		flag.CommandLine = flag.NewFlagSet("sconnaserve", flag.ExitOnError)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownEngineExits2$")
	cmd.Env = append(os.Environ(), "SCONNASERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-engine bogus: err %v, want exit status 2; output:\n%s", err, out)
	}
	for _, want := range []string{`"bogus"`, strings.Join(engineNames, "|")} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("-engine bogus output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "trained") {
		t.Fatalf("-engine bogus trained a model before rejecting the name:\n%s", out)
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

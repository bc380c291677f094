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

// Every documented engine name builds a factory, so the up-front check
// and buildFactory cannot drift apart.
func TestEngineNamesBuild(t *testing.T) {
	for _, name := range engineNames {
		if _, err := buildFactory(name, 8, 64, 1); err != nil {
			t.Errorf("-engine %s: %v", name, err)
		}
	}
}

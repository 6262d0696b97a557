package repro

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// wantFlags is every flag the six front-end binaries accept, with its type
// and any non-zero default, as `-h` prints them. A flag added, removed,
// renamed, retyped or given a new default fails TestFlagSets: the CLIs'
// knobs change only on purpose, together with this table.
var wantFlags = map[string][]string{
	"bksat": {
		"drat string",
		`heur string = "berkmin"`,
		`learn string = "hybrid"`,
		"max-conflicts int",
		"metrics string",
		"pprof",
		"progress",
		"progress-every int = 10000",
		"proof string",
		"seed int",
		"stats",
		"stats-json string",
		"timeout duration",
	},
	"dpv": {
		"all",
		"checkpoint string",
		"checkpoint-every int = 1000",
		"core string",
		"emit-lrat string",
		`engine string = "watched"`,
		"json",
		"lrat-binary",
		"max-memory int",
		"max-props int",
		"metrics string",
		"par int",
		"pprof",
		"progress",
		"progress-every int = 1000",
		"q",
		"resume",
		`sched string = "chunk"`,
		"stats-json string",
		"timeout duration",
		"trace-buf int",
		"trace-jsonl string",
		"trace-out string",
		"trim string",
	},
	"dpvd": {
		`addr string = ":8100"`,
		"all",
		"checkpoint-every int = 1000",
		"drain-timeout duration = 30s",
		`engine string = "watched"`,
		"job-timeout duration",
		"max-memory int",
		"max-props int",
		"max-upload int = 268435456",
		"pprof",
		"q",
		"queue int = 64",
		"retry-after duration = 2s",
		"store string",
		"tenant-queued int",
		"tenant-running int",
		"workers int = 2",
	},
	"dpvrouter": {
		`addr string = ":8200"`,
		"breaker-open-for duration = 1s",
		"breaker-threshold int = 5",
		"forward-attempts int = 3",
		"forward-timeout duration = 5s",
		"health-failures int = 3",
		"health-interval duration = 250ms",
		"hedge-delay duration = 50ms",
		"max-upload int = 67108864",
		"pprof",
		"q",
		"replicate-interval duration = 100ms",
		"replication int = 2",
		"retry-after duration = 2s",
		"shards string",
	},
	"dratcheck": {
		"backward",
		"checkpoint string",
		"checkpoint-every int = 1000",
		"core string",
		"emit-lrat string",
		"lrat-binary",
		"q",
		"resume",
		"stats-json string",
		"timeout duration",
		"trace-buf int = 65536",
		"trace-jsonl string",
		"trace-out string",
		"trim string",
	},
	"lratcheck": {
		"par int",
		"q",
		"stats-json string",
		"timeout duration",
	},
}

// parseFlagHelp reads the flag package's `-h` listing into one
// "name [type] [= default]" entry per flag, in the listing's (sorted) order.
// A flag line is "  -name type" with its usage on the next line, or
// "  -x\tusage" for a one-letter boolean; the usage ends in "(default D)"
// when the default is not the zero value.
func parseFlagHelp(help string) []string {
	var out []string
	lines := strings.Split(help, "\n")
	for i, line := range lines {
		head, ok := strings.CutPrefix(line, "  -")
		if !ok {
			continue
		}
		entry, usage, inline := strings.Cut(head, "\t")
		if !inline && i+1 < len(lines) {
			usage = strings.TrimSpace(lines[i+1])
		}
		if j := strings.LastIndex(usage, " (default "); j >= 0 && strings.HasSuffix(usage, ")") {
			entry += " = " + usage[j+len(" (default "):len(usage)-1]
		}
		out = append(out, entry)
	}
	return out
}

func TestFlagSets(t *testing.T) {
	dir := t.TempDir()
	args := []string{"build", "-o", dir}
	for name := range wantFlags {
		args = append(args, "./cmd/"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	for name, want := range wantFlags {
		code, help := runCmd(t, filepath.Join(dir, name), "-h")
		if code != 0 {
			t.Errorf("%s -h: exit %d, want 0", name, code)
		}
		if got := parseFlagHelp(help); !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags changed:\n got %q\nwant %q", name, got, want)
		}
	}
}

package runner

import (
	"strings"
	"testing"
)

// mutualWaitScenario has two tasks that each wait on an event only the other
// one signals: neither can ever run again. engine fills every task's engine
// field, which selects nothing.
func mutualWaitScenario(engine string) []byte {
	return []byte(`{
		"name": "mutual-wait",
		"processors": [{"name": "cpu"}],
		"events": [{"name": "e1"}, {"name": "e2"}],
		"tasks": [
			{"name": "t1", "processor": "cpu", "priority": 2, "engine": "` + engine + `",
			 "body": [{"op": "wait", "event": "e1"}, {"op": "signal", "event": "e2"}]},
			{"name": "t2", "processor": "cpu", "priority": 1, "engine": "` + engine + `",
			 "body": [{"op": "wait", "event": "e2"}, {"op": "signal", "event": "e1"}]}
		]
	}`)
}

// A run whose tasks block each other forever is a deadlock, exit 1, naming
// both tasks and what they wait on — on both processor engines and whatever
// the task engine field says.
func TestMutualWaitIsDeadlock(t *testing.T) {
	for _, field := range []string{"", "goroutine", "continuation"} {
		for _, engine := range []string{"procedural", "threaded"} {
			res, err := Run(mutualWaitScenario(field), Options{Engine: engine}, "mutual-wait")
			if err != nil {
				t.Fatal(err)
			}
			label := engine + "/" + field
			if res.Finish != "deadlock" || res.ExitCode() != 1 {
				t.Errorf("%s: finished %s, exit %d; want deadlock, exit 1", label, res.Finish, res.ExitCode())
			}
			for _, want := range []string{"t1(waiting)", "t2(waiting)"} {
				if !strings.Contains(string(res.Report), want) {
					t.Errorf("%s: report lacks %q:\n%s", label, want, res.Report)
				}
			}
			for _, want := range []string{"t1 waiting on e1", "t2 waiting on e2"} {
				if !strings.Contains(res.SimError, want) {
					t.Errorf("%s: failure lacks %q: %s", label, want, res.SimError)
				}
			}
		}
	}
}

// A Program-form task (a body of plain ops) stuck in an injected hang with
// no watchdog to restart it is a deadlock too, not a quiescent finish.
func TestProgramTaskHangIsDeadlock(t *testing.T) {
	data := []byte(`{
		"name": "stuck",
		"processors": [{"name": "cpu"}],
		"tasks": [{"name": "t", "processor": "cpu", "body": [{"op": "execute", "for": "100us"}]}],
		"faults": [{"kind": "hang", "task": "t", "at": "30us"}]
	}`)
	res, err := Run(data, Options{}, "stuck")
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != "deadlock" || res.ExitCode() != 1 || !strings.Contains(res.SimError, "t waiting on t.TaskRun") {
		t.Errorf("finished %s, exit %d, failure %q; want a deadlock naming t", res.Finish, res.ExitCode(), res.SimError)
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// lowerRobotLimit sets the create cap to n for the rest of the test.
func lowerRobotLimit(tb testing.TB, n int) {
	old := maxRobots
	maxRobots = n
	tb.Cleanup(func() { maxRobots = old })
}

// postCreate sends body as a create request straight to the handler and
// returns the status code and the raw answer.
func postCreate(h http.Handler, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// The create cap counts the robots a workload builds, not the n asked
// for: a Sierpinski carpet rounds n = 200 up to 8^3 = 512 robots.
func TestCreateRobotLimitCountsBuiltRobots(t *testing.T) {
	lowerRobotLimit(t, 300)
	s, err := New(Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postCreate(s, `{"workload":"sierpinski","n":200}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "robot limit") {
		t.Fatalf("sierpinski n=200 under a 300-robot cap: %d %s, want 400 naming the robot limit", code, body)
	}
	if code, body := postCreate(s, `{"workload":"hollow","n":200}`); code != http.StatusCreated {
		t.Fatalf("hollow n=200 under a 300-robot cap: %d %s", code, body)
	}
}

// FuzzCreateBody sends arbitrary bytes as a create body. The answer is a
// created session holding at most maxRobots robots or a 4xx refusal,
// never a 5xx or a panic. The cap is lowered so every input builds a
// small swarm; each created session is deleted again.
func FuzzCreateBody(f *testing.F) {
	for _, body := range []string{
		`{"workload":"hollow","n":40}`,
		`{"workload":"sierpinski","n":200}`,
		`{"workload":"blob","n":100,"algorithm":"greedy","scheduler":"ssync-rr:3","faults":"crash:p=0.01"}`,
		`{"cells":[[0,0],[1,0],[1,1]],"label":"x","workers":1}`,
		`{"cells":[[0,0],[5,5]]}`,
		`{"cells":[[4611686018427387905,0]]}`,
		`{"workload":"line","n":-3}`,
		`{"workload":"solid","n":100,"radius":3,"l":1}`,
		`{"workload":"nope","n":10}`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	lowerRobotLimit(f, 1024)
	s, err := New(Config{SpillDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, answer := postCreate(s, string(body))
		switch {
		case code == http.StatusCreated:
			var info SessionInfo
			if err := json.Unmarshal(answer, &info); err != nil {
				t.Fatalf("201 with a bad answer %q: %v", answer, err)
			}
			if info.Robots > maxRobots {
				t.Fatalf("created a session of %d robots over the cap %d", info.Robots, maxRobots)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/sessions/"+info.ID, nil))
			if rec.Code >= 300 {
				t.Fatalf("delete %s: %d %s", info.ID, rec.Code, rec.Body.Bytes())
			}
		case code < 400 || code >= 500:
			t.Fatalf("create %q answered %d %s, want 201 or 4xx", body, code, answer)
		}
	})
}

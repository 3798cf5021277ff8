package serve

import (
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// wireSrc and wireEvents make a small session whose rows exercise every
// optional field of the wire format: a rejected flow with its reason, a
// rerouted flow, a departed flow, a link that is down, admission totals.
const wireSrc = `net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission on, routing auto)
run :: Run(seed 7, horizon 4s, trace 2s)
A, B, C :: Switch
A -> B :: Link(delay 2ms)
B -> C :: Link(delay 2ms)
A -> C :: Link(delay 9ms)
circuit :: Guaranteed(rate 100kbps, bucket 50kbit, path A -> B -> C)
tone :: CBR(rate 100pps, size 1000bit)
tone -> circuit
`

const wireEvents = `at 1s { big :: Guaranteed(rate 950kbps, bucket 50kbit, path A -> B -> C) }
at 1.5s { fail B -> C }
at 2.5s {
  late :: Datagram(path A -> C)
  drip :: Poisson(rate 50pps, size 1000bit)
  drip -> late
}
at 3s { remove late }
`

// TestWireBytesPinned holds the JSON the API emits — field names, order,
// omitted-when-empty fields, number formatting — to literals printed by the
// commit before the handlers began encoding scenario's row types directly.
// The session is created paused, takes its events, and is finished by
// action, so every byte but the session id and the wall clock is fixed.
func TestWireBytesPinned(t *testing.T) {
	ts, _ := newTestServer(t)
	var st struct {
		ID string `json:"id"`
	}
	if code := call(t, "POST", ts.URL+"/sessions", map[string]any{"source": wireSrc, "name": "wire", "paused": true}, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	base := ts.URL + "/sessions/" + st.ID
	if code := call(t, "POST", base+"/events", wireEvents, nil); code != http.StatusOK {
		t.Fatalf("inject: %d", code)
	}
	if code := call(t, "POST", base, map[string]string{"action": "finish"}, nil); code != http.StatusOK {
		t.Fatalf("finish: %d", code)
	}
	mask := regexp.MustCompile(`"(id|wall_ms)": [^,\n]+`)
	for _, c := range []struct{ path, want string }{
		{"", wireStatus},
		{"/flows", wireFlows},
		{"/links", wireLinks},
		{"/trace", wireTraceLine},
	} {
		code, got := text(t, base+c.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", c.path, code)
		}
		if c.path == "/trace" {
			got, _, _ = strings.Cut(got, "\n")
		}
		got = mask.ReplaceAllString(got, `"$1": *`)
		if got != c.want {
			t.Errorf("GET %q changed on the wire:\n--- got\n%s\n--- want\n%s", c.path, got, c.want)
		}
	}
}

const wireStatus = `{
  "id": *,
  "scenario": "wire",
  "status": "done",
  "sim_time": 4,
  "horizon": 4,
  "seed": 7,
  "pace": 0,
  "check": false,
  "trace_interval": 2,
  "wall_ms": *,
  "events_injected": 5,
  "admission": {
    "requested": 1,
    "admitted": 0,
    "rejected": 1,
    "departed": 0
  }
}
`

const wireFlows = `{
  "flows": [
    {
      "name": "circuit",
      "service": "guaranteed",
      "hops": 1,
      "arrive_s": 0,
      "delivered": 399,
      "edge_dropped": 0,
      "reroutes": 1,
      "bound_ms": 500,
      "mean_ms": 0.0010456357468564836,
      "pct_ms": [
        0,
        5.204170427930421e-15,
        0.41720866299522347
      ],
      "max_ms": 0.41720866299522347
    },
    {
      "name": "big",
      "service": "guaranteed",
      "hops": 0,
      "arrive_s": 1,
      "rejected": true,
      "reason": "core: link A-\u003eB cannot reserve 950000 bits/s (reserved 100000, quota 900000)",
      "delivered": 0,
      "edge_dropped": 0,
      "bound_ms": -1,
      "mean_ms": 0,
      "pct_ms": [
        0,
        0,
        0
      ],
      "max_ms": 0
    },
    {
      "name": "late",
      "service": "datagram",
      "hops": 1,
      "arrive_s": 2.5,
      "departed": true,
      "delivered": 24,
      "edge_dropped": 0,
      "bound_ms": -1000,
      "mean_ms": 0.05363588347474425,
      "pct_ms": [
        0,
        0.629890169458365,
        0.629890169458365
      ],
      "max_ms": 0.629890169458365
    }
  ],
  "percentiles": [
    0.5,
    0.99,
    0.999
  ],
  "sim_time": 4
}
`

const wireLinks = `{
  "links": [
    {
      "name": "A-\u003eB",
      "sched": "unified",
      "utilization": 0.0375,
      "queue_len": 0,
      "tx_packets": 150,
      "drops": 0
    },
    {
      "name": "A-\u003eC",
      "sched": "unified",
      "utilization": 0.0685,
      "queue_len": 0,
      "tx_packets": 274,
      "drops": 0
    },
    {
      "name": "B-\u003eC",
      "sched": "unified",
      "down": true,
      "utilization": 0.0375,
      "queue_len": 0,
      "tx_packets": 150,
      "drops": 0
    }
  ],
  "sim_time": 4
}
`

const wireTraceLine = `{"interval":0,"start":0,"end":2,"delivered":199,"mean_ms":2.545423391885566e-15,"max_ms":5.204170427930421e-15,"admitted":0,"rejected":1,"departed":0,"util":0.075}`

// Cluster-net: the networked cluster end-to-end with real processes —
// two empty ssdcheckd daemons come up as cluster members, a networked
// ssdcheck-cluster coordinator joins them over their /v1/node/* RPC
// plane, diagnoses four devices locally and pushes each one's state to
// its ring owner over attach RPCs. A graceful drain then migrates
// every device off node-a through detach/attach over the wire; the
// coordinator is SIGKILLed mid-flight and a restarted one replays its
// log and resumes with the same placement and log; node-b's process
// dies and the per-node circuit breaker turns an unreachable member
// from one timeout per request into one fast-fail per sub-batch; and
// finally the node RPC plane's epoch fencing is demonstrated — once a
// node witnesses a newer leadership term, RPCs from a deposed
// coordinator answer 412 before touching state.
//
// Run from the repository root: go run ./examples/cluster-net
// (it builds ssdcheckd and ssdcheck-cluster into a temp dir first).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	tmp, err := os.MkdirTemp("", "ssdcheck-cluster-net-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// 1. Build the two daemons.
	fmt.Println("building ssdcheckd and ssdcheck-cluster...")
	build := exec.Command("go", "build", "-o", tmp+string(os.PathSeparator),
		"./cmd/ssdcheckd", "./cmd/ssdcheck-cluster")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		log.Fatal(err)
	}

	portA, portB, portC := freePort(), freePort(), freePort()
	urlA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	urlB := fmt.Sprintf("http://127.0.0.1:%d", portB)
	urlC := fmt.Sprintf("http://127.0.0.1:%d", portC)
	logDir := filepath.Join(tmp, "coordinator")

	// 2. Two empty members: real ssdcheckd processes whose devices will
	//    arrive over the network.
	nodeA := spawn(tmp, "ssdcheckd", "-addr", addrOf(portA), "-devices", "0", "-node-id", "node-a")
	defer kill(nodeA)
	nodeB := spawn(tmp, "ssdcheckd", "-addr", addrOf(portB), "-devices", "0", "-node-id", "node-b")
	defer kill(nodeB)
	waitHealthy(urlA)
	waitHealthy(urlB)
	fmt.Printf("members up: node-a %s, node-b %s\n", urlA, urlB)

	// 3. The networked coordinator: joins both members, diagnoses four
	//    devices in a local bootstrap fleet, and pushes each device's
	//    state (model, calibration, accuracy windows) to its ring owner
	//    over /v1/node/attach. -tick-interval 0 keeps heartbeat rounds
	//    manual so the walkthrough is reproducible; -wal-dir makes every
	//    decision durable.
	coordArgs := []string{
		"-addr", addrOf(portC),
		"-join", "node-a=" + urlA + ",node-b=" + urlB,
		"-devices", "4", "-fastdiag", "-seed", "42",
		"-tick-interval", "0", "-wal-dir", logDir,
	}
	coord := spawn(tmp, "ssdcheck-cluster", coordArgs...)
	defer kill(coord)
	waitHealthy(urlC)

	var placement struct {
		Placement map[string]string `json:"placement"`
		Log       []struct {
			Seq    int64  `json:"seq"`
			Device string `json:"device"`
			From   string `json:"from"`
			To     string `json:"to"`
			Cause  string `json:"cause"`
		} `json:"log"`
	}
	getJSON(urlC+"/v1/cluster/placement", &placement)
	fmt.Println("\nbootstrap placement (adopted over attach RPCs):")
	for _, e := range placement.Log {
		fmt.Printf("  seq=%d %-10s -> %s (%s)\n", e.Seq, e.Device, e.To, e.Cause)
	}

	// 4. Fan-out submit through the HTTP transport: per-attempt
	//    deadlines, idempotency tokens, node-attributed results.
	devices := make([]string, 0, len(placement.Placement))
	for _, e := range placement.Log {
		devices = append(devices, e.Device)
	}
	fmt.Println("\nsubmit fan-out:")
	for _, r := range submit(urlC, devices) {
		fmt.Printf("  %-10s served by %-7s err=%q\n", r.DeviceID, r.Node, r.Error)
	}

	// 5. Graceful drain: node-a's devices detach from its process and
	//    attach to node-b's — live device state crossing the network.
	postJSON(urlC+"/v1/cluster/nodes/node-a/drain", nil)
	getJSON(urlC+"/v1/cluster/placement", &placement)
	fmt.Println("\nafter draining node-a (state migrated over the wire):")
	for _, e := range placement.Log {
		if e.Cause == "leave" {
			fmt.Printf("  seq=%d %-10s %s -> %s (%s)\n", e.Seq, e.Device, e.From, e.To, e.Cause)
		}
	}

	// 6. Coordinator crash: SIGKILL, then a fresh process with the same
	//    -wal-dir restores its snapshot, replays the entries after it
	//    and resumes — same
	//    membership, same placement, same seq counter. node-a stays out
	//    (it was drained), so the restart joins only node-b.
	fmt.Println("\nkilling the coordinator mid-flight...")
	kill(coord)
	coord2 := spawn(tmp, "ssdcheck-cluster",
		"-addr", addrOf(portC),
		"-join", "node-b="+urlB,
		"-devices", "4", "-fastdiag", "-seed", "42",
		"-tick-interval", "0", "-wal-dir", logDir,
	)
	defer kill(coord2)
	waitHealthy(urlC)
	getJSON(urlC+"/v1/cluster/placement", &placement)
	fmt.Println("recovered placement (replayed from the log):")
	for dev, node := range placement.Placement {
		fmt.Printf("  %-10s on %s\n", dev, node)
	}
	fmt.Println("recovered coordinator still serves:")
	for _, r := range submit(urlC, devices[:2]) {
		fmt.Printf("  %-10s served by %-7s err=%q\n", r.DeviceID, r.Node, r.Error)
	}

	// 7. Node death and the circuit breaker: node-b's process dies; the
	//    first failed submits burn an RPC each and open the breaker,
	//    after which sub-batches fast-fail locally without touching the
	//    network.
	fmt.Println("\nkilling node-b's process...")
	kill(nodeB)
	for i := 0; i < 4; i++ {
		res := submit(urlC, devices[:1])
		fmt.Printf("  submit %d: err=%q\n", i+1, res[0].Error)
	}
	var breakers struct {
		Breakers map[string]string `json:"breakers"`
		Log      []struct {
			Seq   int64  `json:"seq"`
			Node  string `json:"node"`
			From  string `json:"from"`
			To    string `json:"to"`
			Cause string `json:"cause"`
		} `json:"log"`
	}
	getJSON(urlC+"/v1/cluster/breakers", &breakers)
	fmt.Println("breaker transitions (seq-ordered with placement and health):")
	for _, e := range breakers.Log {
		fmt.Printf("  seq=%d %-7s %s -> %s (%s)\n", e.Seq, e.Node, e.From, e.To, e.Cause)
	}
	fmt.Printf("breaker states: %v\n", breakers.Breakers)

	// 8. Epoch fencing on the node plane: every /v1/node/* RPC may
	//    carry a fencing token (term, leaderID). A node remembers the
	//    highest term it has witnessed and answers 412 to anything
	//    older — before touching any state — so when coordinators are
	//    replicated (ssdcheck-cluster -peers), a deposed leader that
	//    still believes it holds the lease is cut off the moment its
	//    successor's first RPC lands. Demonstrated here against
	//    node-a's live RPC plane.
	fmt.Println("\nepoch fencing on node-a's /v1/node plane:")
	for _, probe := range []struct {
		term   int64
		leader string
	}{
		{2, "rep-0"}, // first fenced RPC: node witnesses term 2
		{3, "rep-1"}, // a successor at term 3: accepted, raises the bar
		{2, "rep-0"}, // the deposed leader retries: 412, fenced
	} {
		code := fencedHeartbeat(urlA, probe.term, probe.leader)
		verdict := "accepted"
		if code == http.StatusPreconditionFailed {
			verdict = "REJECTED (stale term)"
		}
		fmt.Printf("  heartbeat from %s at term %d: %d %s\n", probe.leader, probe.term, code, verdict)
	}
}

// fencedHeartbeat posts a heartbeat stamped with a fencing token and
// returns the HTTP status — 200 for a current term, 412 for a stale
// one.
func fencedHeartbeat(base string, term int64, leader string) int {
	body, _ := json.Marshal(map[string]any{
		"fence": map[string]any{"term": term, "leader": leader},
	})
	resp, err := http.Post(base+"/v1/node/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

type result struct {
	DeviceID string `json:"device"`
	Node     string `json:"node"`
	Error    string `json:"error"`
}

// submit posts one write per device and returns the node-attributed
// results.
func submit(base string, devices []string) []result {
	type req struct {
		Device  string `json:"device"`
		Op      string `json:"op"`
		LBA     int64  `json:"lba"`
		Sectors int    `json:"sectors"`
	}
	body := struct {
		Requests []req `json:"requests"`
	}{}
	for i, d := range devices {
		body.Requests = append(body.Requests, req{Device: d, Op: "write", LBA: int64(i+1) * 4096, Sectors: 8})
	}
	var resp struct {
		Results []result `json:"results"`
	}
	b, _ := json.Marshal(body)
	r, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		log.Fatal(err)
	}
	return resp.Results
}

func spawn(dir, bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	return cmd
}

func kill(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}

func freePort() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func addrOf(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

// waitHealthy polls /healthz until the daemon answers (bootstrap
// diagnosis can take a few seconds).
func waitHealthy(base string) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("%s never became healthy", base)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}

func postJSON(url string, out any) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, e.Error)
	}
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
}

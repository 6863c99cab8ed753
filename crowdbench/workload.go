package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// workload is one traffic mix and the deployment it runs against.
// Rates are absolute sessions/s, frozen from the closed-loop capacity
// measured on the code the benchmark was defined against: nominal is
// about 40% of it and high about 70%.
type workload struct {
	name    string
	kind    string // campaign kind: timeline or ab
	binary  bool   // events as one EYB1 batch per session
	durable bool   // -data-dir: recovery compares /results bytes
	routed  bool   // eyeorg-router in front of two nodes
	videos  int    // captured videos per campaign
	nominal float64
	high    float64
	// dashRate and revalRate are the open-loop rates (requests/s) of
	// experimenter polls and video revalidations beside the sessions,
	// each frozen at 5% of that stream's own closed-loop capacity,
	// measured alone on the same deployment (DESIGN.md).
	dashRate, revalRate float64
	// serverArgs are the eyeorg-server flags beyond addressing, and
	// direct the same configuration for an in-process server.
	serverArgs func(dataDir string, videoBytes int64) []string
	direct     func(dataDir string, videoBytes int64) platform.Options
}

var workloads = []*workload{
	{
		name: "durable-json", kind: "timeline", durable: true, videos: 4,
		nominal: 80, high: 140,
		serverArgs: func(dir string, _ int64) []string {
			return []string{"-data-dir", dir, "-fsync", "-group-commit"}
		},
		direct: func(dir string, _ int64) platform.Options {
			return platform.Options{DataDir: dir, Fsync: true, GroupCommit: true}
		},
	},
	{
		name: "mem-binary", kind: "ab", binary: true, videos: 4,
		nominal: 240, high: 415,
		serverArgs: func(string, int64) []string { return nil },
		direct:     func(string, int64) platform.Options { return platform.Options{} },
	},
	{
		name: "routed-readers", kind: "timeline", durable: true, routed: true, videos: 16,
		nominal: 52, high: 90, dashRate: 80, revalRate: 200,
		serverArgs: func(dir string, videoBytes int64) []string {
			// The byte cache is sized at a quarter of a node's videos.
			// It keeps at least one chunk per shard, so the 16 KiB chunk
			// bound decides what fits: larger videos always miss and go
			// to the file tier. The CI target is far below what varying
			// answers can reach, so the campaign never closes and every
			// join is allocated; only a video whose first five kept
			// answers agree resolves (adaptive.resolved_videos).
			return []string{"-data-dir", dir, "-adaptive", "-ci-halfwidth", "0.0001",
				"-video-cache", strconv.FormatInt(videoBytes/4, 10), "-video-chunk", "16384"}
		},
		direct: func(dir string, videoBytes int64) platform.Options {
			return platform.Options{DataDir: dir, Adaptive: true, CIHalfWidth: 0.0001, VideoCacheBytes: videoBytes / 4, VideoChunkBytes: 16384}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// deployment is the set of processes one setup started.
type deployment struct {
	front   string  // base URL the generator drives
	servers []*proc // eyeorg-server processes
	router  *proc   // nil unless routed
	dirs    []string
	camps   []*campaignSeed
	// owner[i] is the server owning camps[i].
	owner []int
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.servers...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

func (d *deployment) kill() {
	for _, p := range d.procs() {
		p.kill()
	}
}

// setupOpts are what a setup needs beyond the workload.
type setupOpts struct {
	bin      string // directory holding eyeorg-server and eyeorg-router
	work     string // scratch directory for data dirs and logs
	tag      string
	traced   bool
	payloads [][]byte
}

// setup starts the workload's processes on fresh data dirs and seeds
// its campaigns; it returns once the campaigns are ready to join.
func setup(w *workload, o setupOpts, hc *http.Client) (*deployment, error) {
	d := &deployment{}
	nServers := 1
	if w.routed {
		nServers = 2
	}
	ids := []string{"a", "b"}
	// An API and a debug port per server, and one for the router.
	all, err := freePorts(2*nServers + 1)
	if err != nil {
		return nil, err
	}
	ports, debugPorts, routerPort := all[:nServers], all[nServers:2*nServers], all[2*nServers]
	var videoBytes int64
	for _, p := range o.payloads {
		videoBytes += int64(len(p))
	}
	for i := 0; i < nServers; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(o.work, fmt.Sprintf("%s-node%d", o.tag, i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			d.dirs = append(d.dirs, dir)
		}
		base := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-log-format", "json"}
		args = append(args, w.serverArgs(dir, videoBytes)...)
		if w.routed {
			var peers []string
			for k := range ports {
				if k != i {
					peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", ids[k], ports[k]))
				}
			}
			args = append(args, "-node-id", ids[i], "-node-base", base, "-peers", strings.Join(peers, ","))
		}
		p := &proc{name: "eyeorg-server", bin: filepath.Join(o.bin, "eyeorg-server"), base: base,
			log: filepath.Join(o.work, fmt.Sprintf("%s-server%d.log", o.tag, i))}
		// The debug listener serves /debug/vars (allocation counters)
		// and, when traced, /debug/traces.
		p.debug = fmt.Sprintf("http://127.0.0.1:%d", debugPorts[i])
		args = append(args, "-debug-addr", fmt.Sprintf("127.0.0.1:%d", debugPorts[i]))
		if o.traced {
			args = append(args, "-trace-sample", "1", "-trace-buffer", "262144")
		}
		p.args = args
		d.servers = append(d.servers, p)
	}
	d.front = d.servers[0].base
	if w.routed {
		var members []string
		for i, p := range d.servers {
			members = append(members, ids[i]+"="+p.base)
		}
		d.router = &proc{name: "eyeorg-router", bin: filepath.Join(o.bin, "eyeorg-router"),
			base: fmt.Sprintf("http://127.0.0.1:%d", routerPort),
			log:  filepath.Join(o.work, o.tag+"-router.log"),
			args: []string{"-addr", fmt.Sprintf("127.0.0.1:%d", routerPort), "-mode", "proxy", "-nodes", strings.Join(members, ","), "-log-format", "json"}}
		d.front = d.router.base
	}
	for _, p := range d.procs() {
		if err := p.start(); err != nil {
			d.kill()
			return nil, err
		}
	}
	for _, p := range d.procs() {
		if err := waitReady(hc, p.base+"/metrics", 20*time.Second); err != nil {
			d.kill()
			return nil, err
		}
	}
	if err := d.seed(w, o.payloads, hc); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// seed creates campaigns until every server owns one, uploading the
// workload's videos to each, and keeps the first campaign per server.
func (d *deployment) seed(w *workload, payloads [][]byte, hc *http.Client) error {
	owned := make([]*campaignSeed, len(d.servers))
	for created := 0; ; created++ {
		missing := 0
		for _, c := range owned {
			if c == nil {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if created >= 16 {
			return fmt.Errorf("no campaign placement covers all %d servers after %d campaigns", len(d.servers), created)
		}
		var cr platform.CreateCampaignResponse
		if err := postJSON(hc, d.front+"/api/v1/campaigns", "application/json",
			[]byte(fmt.Sprintf(`{"name":"crowdbench-%d","kind":%q}`, created, w.kind)), http.StatusCreated, &cr); err != nil {
			return fmt.Errorf("creating campaign: %w", err)
		}
		c := &campaignSeed{id: cr.ID, payloads: payloads, byID: map[string]int{}}
		for j, p := range payloads {
			var av platform.AddVideoResponse
			if err := postJSON(hc, d.front+"/api/v1/campaigns/"+c.id+"/videos", "application/octet-stream", p, http.StatusCreated, &av); err != nil {
				return fmt.Errorf("uploading video %d: %w", j, err)
			}
			c.byID[av.ID] = j
			c.videoIDs = append(c.videoIDs, av.ID)
		}
		if !w.routed {
			owned[0] = c
			continue
		}
		for i, s := range d.servers {
			resp, err := hc.Get(s.base + "/api/v1/campaigns/" + c.id + "/results")
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && owned[i] == nil {
				owned[i] = c
			}
		}
	}
	for i, c := range owned {
		c.classes = roundRobinClasses(len(c.videoIDs))
		d.camps = append(d.camps, c)
		d.owner = append(d.owner, i)
	}
	return nil
}

// reseed seeds a restarted in-memory deployment again and requires the
// server to mint the IDs the scripts were generated for.
func (d *deployment) reseed(w *workload, payloads [][]byte, hc *http.Client) error {
	old := d.camps
	d.camps, d.owner = nil, nil
	if err := d.seed(w, payloads, hc); err != nil {
		return err
	}
	for i, c := range d.camps {
		if c.id != old[i].id || strings.Join(c.videoIDs, ",") != strings.Join(old[i].videoIDs, ",") {
			return fmt.Errorf("reseeded campaign %s has IDs %s %v, scripts expect %s %v", c.id, c.id, c.videoIDs, old[i].id, old[i].videoIDs)
		}
		d.camps[i] = old[i]
	}
	return nil
}

// learnETags fetches every seeded video once, checking the served bytes
// and keeping the strong validator for the revalidation stream.
func (d *deployment) learnETags(hc *http.Client) error {
	for _, c := range d.camps {
		c.etags = make([]string, len(c.videoIDs))
		for j, id := range c.videoIDs {
			resp, err := hc.Get(d.front + "/api/v1/videos/" + id)
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, c.payloads[j]) {
				return fmt.Errorf("video %s: status %d, served bytes differ from the upload", id, resp.StatusCode)
			}
			c.etags[j] = resp.Header.Get("ETag")
		}
	}
	return nil
}

func postJSON(hc *http.Client, url, ctype string, body []byte, want int, out any) error {
	resp, err := hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d, want %d: %.200s", url, resp.StatusCode, want, b)
	}
	return json.Unmarshal(b, out)
}

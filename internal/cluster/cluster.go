package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// Config describes a cluster to bring up in-process.
type Config struct {
	// Nodes are the member IDs ("a", "b", "c"); each becomes one
	// durable platform server with DataDir <Dir>/<id> and the ID tag
	// "<id>.". IDs must be mutually prefix-free and must not contain
	// '.' or '/'.
	Nodes []string
	// Dir is the parent data directory; each node journals under its
	// own subdirectory.
	Dir string
	// Fsync/GroupCommit select the nodes' durability mode, same
	// semantics as platform.Options.
	Fsync       bool
	GroupCommit bool
	// SyncDelay forwards to every node's platform.Options.SyncDelay —
	// a fixed latency floor per commit fsync, used by the scale-out
	// benchmarks to price per-node durability like independent disks.
	SyncDelay time.Duration
	// SnapshotEvery forwards to platform.Options.SnapshotEvery.
	SnapshotEvery int
	// Vnodes is the ring's virtual-node count (0 = DefaultVnodes).
	Vnodes int
	// RouterMode is "proxy" (default) or "redirect".
	RouterMode string
	// Adaptive settings forward to every node.
	Adaptive     bool
	CIHalfWidth  float64
	AdaptiveSeed int64
	// DisableTelemetry turns off per-node registries (benchmarks).
	DisableTelemetry bool
}

// Cluster is a set of platform nodes partitioned by campaign plus the
// router in front of them. It owns the handoff choreography; the nodes
// and router only mechanize fencing and routing.
type Cluster struct {
	cfg    Config
	router *Router

	mu    sync.Mutex
	nodes map[string]*Node
	order []string // creation order

	// handoffMu serializes campaign migrations, so a campaign moved
	// twice in a row gets its router overrides in handoff order.
	handoffMu sync.Mutex
}

// New brings up the cluster: one durable platform server per node and
// a router over all of them.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.RouterMode == "" {
		cfg.RouterMode = "proxy"
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: map[string]*Node{},
	}
	for _, id := range cfg.Nodes {
		if id == "" || c.nodes[id] != nil {
			c.closeAll()
			return nil, fmt.Errorf("cluster: invalid or duplicate node ID %q", id)
		}
		n, err := c.newNode(id)
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("cluster: node %s: %w", id, err)
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
	}
	ring := NewRing(cfg.Nodes, cfg.Vnodes)
	var nodeList []*Node
	for _, id := range c.order {
		nodeList = append(nodeList, c.nodes[id])
	}
	rt, err := NewRouter(cfg.RouterMode, ring, nodeList)
	if err != nil {
		c.closeAll()
		return nil, err
	}
	c.router = rt
	return c, nil
}

// newNode opens one member's durable platform server and wraps it in
// the ownership middleware.
func (c *Cluster) newNode(id string) (*Node, error) {
	srv, err := platform.Open(platform.Options{
		DataDir:          filepath.Join(c.cfg.Dir, id),
		Fsync:            c.cfg.Fsync,
		GroupCommit:      c.cfg.GroupCommit,
		SyncDelay:        c.cfg.SyncDelay,
		SnapshotEvery:    c.cfg.SnapshotEvery,
		IDTag:            id + ".",
		Adaptive:         c.cfg.Adaptive,
		CIHalfWidth:      c.cfg.CIHalfWidth,
		AdaptiveSeed:     c.cfg.AdaptiveSeed,
		DisableTelemetry: c.cfg.DisableTelemetry,
	})
	if err != nil {
		return nil, err
	}
	return NewStandaloneNode(id, "http://node-"+id, srv, func(nodeID string) (string, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		t, ok := c.nodes[nodeID]
		if !ok {
			return "", false
		}
		return t.Base, true
	}), nil
}

// Router returns the cluster's router.
func (c *Cluster) Router() *Router { return c.router }

// Handler returns the router's handler — the cluster's single entry
// point.
func (c *Cluster) Handler() http.Handler { return c.router.Handler() }

// Node returns a member by ID (nil if unknown).
func (c *Cluster) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// MoveCampaign migrates one campaign between nodes:
//
//	fence (opHandoff on from) ──> export ──> import on to ──> router override
//
// Fencing first makes the export complete by construction: the fence
// refuses every later mutation on the old owner, and the export holds
// the old owner's world lock, so every mutation that passed the fencing
// check before it has applied. Requests arriving between the fence and
// the import are answered 307 toward the new owner, which does not
// know the campaign yet; they fail and are never acked.
func (c *Cluster) MoveCampaign(campaign, from, to string) error {
	c.handoffMu.Lock()
	defer c.handoffMu.Unlock()
	c.mu.Lock()
	src, dst := c.nodes[from], c.nodes[to]
	c.mu.Unlock()
	if src == nil {
		return fmt.Errorf("cluster: no source node %s", from)
	}
	if dst == nil {
		return fmt.Errorf("cluster: no target node %s", to)
	}
	if err := src.srv.Handoff(campaign, to); err != nil {
		return fmt.Errorf("cluster: fence %s on %s: %w", campaign, from, err)
	}
	state, err := src.srv.ExportCampaign(campaign)
	if err != nil {
		return fmt.Errorf("cluster: export %s from %s: %w", campaign, from, err)
	}
	if err := dst.srv.ImportCampaign(state); err != nil {
		return fmt.Errorf("cluster: import %s into %s: %w", campaign, to, err)
	}
	c.router.Override(campaign, to)
	return nil
}

// Close shuts every node down, flushing and closing its journal.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeAll()
}

func (c *Cluster) closeAll() error {
	var first error
	for _, id := range c.order {
		n := c.nodes[id]
		if n == nil {
			continue
		}
		if err := n.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

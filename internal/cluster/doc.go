// Package cluster partitions EYEORG campaigns across platform nodes.
//
// Campaigns are the shard unit — sessions never span campaigns — and a
// consistent-hash ring (Ring) with virtual nodes maps each campaign ID
// to its owning node, so membership changes move only ~1/N of the
// keyspace. The Router in front resolves every API request to the
// owner (ring for fresh campaigns, learned tables and handoff overrides
// after that) and either proxies in-process or answers a 307 for the
// client to follow.
//
// Each Node wraps one durable platform server in the ownership
// middleware that fences handed-off campaigns with 307s. Replication is
// not provided: a node's journal is the only copy of its campaigns, so
// "acked" means durable on that node's disk, and a node that dies is
// unavailable until it restarts over its own data directory.
//
// Campaign migration (Cluster.MoveCampaign) is fence, export, import,
// override: a journaled handoff record fences the campaign on the old
// owner (which then answers 307 and never double-applies), the now
// quiescent campaign is exported, the new owner installs it as one
// journaled import record, and the router pins the new owner. See
// docs/ARCHITECTURE.md for the protocol narrative and docs/PROTOCOLS.md
// for the record formats.
package cluster

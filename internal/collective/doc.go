// Package collective implements the communication collectives the paper's
// cost analysis (§5.1) assumes: binomial-tree broadcast and reduction,
// binomial gather and all-to-allv personalized exchange.
// The dissemination barrier the analysis also assumes is comm.Comm.Barrier:
// it runs on the whole world only, on a tag comm reserves.
//
// All collectives are built purely on comm.Endpoint Send/Recv, so they run
// unchanged over a whole World or over a Group (sub-communicator). Every
// rank of the endpoint must call the collective with the same root and tag
// (standard SPMD discipline); tags namespace concurrent collectives.
package collective

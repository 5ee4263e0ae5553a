package experiments

// journal is the retired sweep resume record's file name.
const journal = "sweep.journal"

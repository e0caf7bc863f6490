package engine

// SetupSales exposes the paper's Figure 1 fixture to the external tests.
var SetupSales = setupSales

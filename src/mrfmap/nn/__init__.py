"""Neural-network regressors of (T1, T2); callers use the submodules directly."""

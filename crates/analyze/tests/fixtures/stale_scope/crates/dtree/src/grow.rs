//! The client loop the panic scope names, but for `apply_exact`: a
//! test-only `apply_exact` does not keep its name alive.
pub fn drain() {}

#[cfg(test)]
mod tests {
    fn apply_exact() {}
}

//! Minimal command-line flag parsing (the container vendors no clap): `--name value`
//! options and `--name` boolean switches, consumed from a copied argument list.

/// A consumable view of the process arguments.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wrap an argument list (without the program name).
    pub fn new(rest: Vec<String>) -> Args {
        Args { rest }
    }

    /// Collect the process arguments after the program name (and an optional leading
    /// subcommand, which the caller has already consumed).
    pub fn from_env(skip: usize) -> Args {
        Args::new(std::env::args().skip(1 + skip).collect())
    }

    /// Consume `--name value`; `None` if absent.
    pub fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let flag = format!("--{name}");
        let Some(pos) = self.rest.iter().position(|a| *a == flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.rest.len() {
            return Err(format!("{flag} requires a value"));
        }
        self.rest.remove(pos);
        Ok(Some(self.rest.remove(pos)))
    }

    /// Consume `--name value` and parse it; error if absent or unparsable.
    pub fn req<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name)? {
            Some(v) => v.parse().map_err(|e| format!("--{name} {v}: {e}")),
            None => Err(format!("--{name} is required")),
        }
    }

    /// Consume `--name value` and parse it, with a default when absent.
    pub fn opt_or<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name)? {
            Some(v) => v.parse().map_err(|e| format!("--{name} {v}: {e}")),
            None => Ok(default),
        }
    }

    /// Consume a boolean `--name` switch.
    pub fn switch(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        if let Some(pos) = self.rest.iter().position(|a| *a == flag) {
            self.rest.remove(pos);
            true
        } else {
            false
        }
    }

    /// Error if anything was left unconsumed (catches typos early).
    pub fn finish(&self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {}", self.rest.join(" ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn options_switches_and_leftovers() {
        let mut a = args(&["--node", "3", "--detect", "--fabric", "a:1,b:2"]);
        assert_eq!(a.req::<u32>("node").unwrap(), 3);
        assert!(a.switch("detect"));
        assert!(!a.switch("detect"), "switch consumed");
        assert_eq!(a.opt("fabric").unwrap().as_deref(), Some("a:1,b:2"));
        a.finish().unwrap();

        let mut b = args(&["--oops"]);
        assert!(b.opt("node").unwrap().is_none());
        assert!(b.req::<u32>("node").is_err());
        assert!(b.finish().is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let mut a = args(&["--node"]);
        assert!(a.opt("node").is_err());
    }

    #[test]
    fn opt_or_defaults() {
        let mut a = args(&[]);
        assert_eq!(a.opt_or("waves", 4u32).unwrap(), 4);
    }
}

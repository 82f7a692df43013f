//! Daemon configuration: a flat TOML subset mapped onto [`HopliteConfig`].
//!
//! The container vendors no TOML crate, so `hoplited` reads the small flat dialect a
//! deployment actually needs — `key = value` lines, `#` comments, integers, booleans
//! and durations in milliseconds. Unknown keys are an error (a typo in a config file
//! must not silently run with defaults).

use hoplite_core::prelude::*;

/// Parse the flat-TOML daemon config dialect into a [`HopliteConfig`], starting from
/// [`HopliteConfig::default`]. Supported keys:
///
/// `block_size`, `inline_threshold`, `store_capacity`, `snapshot_chunk_bytes`,
/// `directory_inline_cache_bytes`, `directory_replication`. `block_size` must be
/// positive.
///
/// The SWIM failure detector is off unless `detector = true`; with it on, the knobs
/// `detector_probe_period_ms`, `detector_ack_timeout_ms`,
/// `detector_suspicion_multiplier`, `detector_indirect_fanout`, and
/// `detector_gossip_budget` override [`DetectorConfig::default`] (any of them also
/// implies `detector = true`).
pub fn parse(text: &str) -> std::result::Result<HopliteConfig, String> {
    let mut cfg = HopliteConfig::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got `{raw}`", lineno + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let int = || -> std::result::Result<u64, String> {
            value.parse().map_err(|e| format!("line {}: {key} = {value}: {e}", lineno + 1))
        };
        let boolean = || -> std::result::Result<bool, String> {
            value.parse().map_err(|e| format!("line {}: {key} = {value}: {e}", lineno + 1))
        };
        match key {
            "block_size" => {
                cfg.block_size = int()?;
                if cfg.block_size == 0 {
                    return Err(format!("line {}: block_size must be positive", lineno + 1));
                }
            }
            "inline_threshold" => cfg.inline_threshold = int()?,
            "store_capacity" => cfg.store_capacity = int()?,
            "snapshot_chunk_bytes" => cfg.snapshot_chunk_bytes = int()?,
            "directory_inline_cache_bytes" => cfg.directory_inline_cache_bytes = int()?,
            "directory_replication" => cfg.directory_replication = int()? as usize,
            "detector" => {
                if boolean()? {
                    cfg.detector.get_or_insert_with(DetectorConfig::default);
                } else {
                    cfg.detector = None;
                }
            }
            "detector_probe_period_ms" => {
                cfg.detector.get_or_insert_with(DetectorConfig::default).probe_period =
                    Duration::from_millis(int()?);
            }
            "detector_ack_timeout_ms" => {
                cfg.detector.get_or_insert_with(DetectorConfig::default).ack_timeout =
                    Duration::from_millis(int()?);
            }
            "detector_suspicion_multiplier" => {
                cfg.detector.get_or_insert_with(DetectorConfig::default).suspicion_multiplier =
                    int()? as u32;
            }
            "detector_indirect_fanout" => {
                cfg.detector.get_or_insert_with(DetectorConfig::default).indirect_fanout =
                    int()? as usize;
            }
            "detector_gossip_budget" => {
                cfg.detector.get_or_insert_with(DetectorConfig::default).gossip_budget =
                    int()? as usize;
            }
            other => return Err(format!("line {}: unknown config key `{other}`", lineno + 1)),
        }
    }
    Ok(cfg)
}

/// Load and parse a config file.
pub fn load(path: &std::path::Path) -> std::result::Result<HopliteConfig, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_keys() {
        let cfg = parse(
            "# drill config\n\
             block_size = 65536\n\
             inline_threshold = 128   # small objects stay inline\n\
             directory_replication = 3\n",
        )
        .unwrap();
        assert_eq!(cfg.block_size, 65536);
        assert_eq!(cfg.inline_threshold, 128);
        assert_eq!(cfg.directory_replication, 3);
        // Untouched keys keep their defaults.
        assert_eq!(cfg.store_capacity, HopliteConfig::default().store_capacity);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_errors() {
        assert!(parse("block_sz = 1").is_err());
        assert!(parse("block_size = banana").is_err());
        assert!(parse("no equals sign").is_err());
        // The key of a knob that no longer exists is an unknown key, not silently ignored.
        for retired in
            ["pull_timeout_ms = 250", "directory_shards = 4", "directory_lease_ttl_ms = 250"]
        {
            let err = parse(retired).unwrap_err();
            assert!(err.contains("unknown config key"), "{err}");
        }
        let err = parse("block_size = 1024\ndirectory_log_retention = 4\n").unwrap_err();
        assert_eq!(err, "line 2: unknown config key `directory_log_retention`");
    }

    /// A zero block size would make the first sender loop on zero-length sends and a
    /// reduce participant divide by zero, so it never reaches a node.
    #[test]
    fn a_zero_block_size_is_an_error_naming_its_line() {
        let err = parse("inline_threshold = 128\nblock_size = 0\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("block_size"), "{err}");
    }

    #[test]
    fn detector_keys_enable_and_tune_the_detector() {
        assert!(parse("").unwrap().detector.is_none(), "off by default");
        assert!(parse("detector = true").unwrap().detector.is_some());
        assert!(parse("detector = false").unwrap().detector.is_none());
        let cfg = parse(
            "detector_probe_period_ms = 100\n\
             detector_ack_timeout_ms = 40\n\
             detector_suspicion_multiplier = 10\n\
             detector_indirect_fanout = 2\n\
             detector_gossip_budget = 8\n",
        )
        .unwrap();
        let det = cfg.detector.expect("any detector knob implies detector = true");
        assert_eq!(det.probe_period, Duration::from_millis(100));
        assert_eq!(det.ack_timeout, Duration::from_millis(40));
        assert_eq!(det.suspicion_multiplier, 10);
        assert_eq!(det.indirect_fanout, 2);
        assert_eq!(det.gossip_budget, 8);
    }
}

#pragma once
// Periodic profile snapshots: a background thread serializes the span-tree
// profile to a file at a fixed interval, rotating older snapshots to
// `<path>.1` … `<path>.3` so a crashed or wedged process still leaves a
// recent history behind. Writes go through a temp file + rename, so readers
// (tail -f loops, a scraper) never observe a torn document. Each snapshot is
// `{"seq":N,"final":bool,"profile":{…}}` where `profile` is exactly
// `profile_to_json(ProfileFields::full)`, the document `--profile-out`
// writes; `final` is true only for the closing snapshot written by
// `stop_snapshots`.

#include <chrono>
#include <string>

namespace tsvcod::obs {

/// The exporter period when neither the flag nor the variable sets one.
inline constexpr std::chrono::milliseconds kDefaultSnapshotInterval{1000};

/// The exporter period for a snapshot interval written in seconds, as the
/// --snapshot-interval flag and the TSVCOD_SNAPSHOT_INTERVAL variable take
/// it; `source` names which of them `text` came from. The whole text must be
/// a finite number of seconds in (0, 1e9]; it is rounded to the nearest
/// millisecond, and to 1 ms when shorter. Throws std::runtime_error naming
/// `source` and quoting `text` otherwise.
std::chrono::milliseconds parse_snapshot_interval(const std::string& text,
                                                  const std::string& source);

/// Start (or restart with new settings) the background exporter; enables the
/// profiler implicitly since a snapshot of nothing is useless. Throws
/// std::invalid_argument on a non-positive interval, naming the
/// --snapshot-interval flag / TSVCOD_SNAPSHOT_INTERVAL env var (a silent
/// clamp used to turn a typo into a 1 ms busy loop).
void start_snapshots(std::string path,
                     std::chrono::milliseconds interval = kDefaultSnapshotInterval);

/// Stop the exporter: joins the thread, then writes one last snapshot with
/// `"final":true` — always written after the worker has exited, so it is the
/// last document on disk even when stop races an in-progress periodic write.
/// Safe to call when not running, and safe to call concurrently from several
/// threads (exactly one final snapshot is written).
void stop_snapshots();

bool snapshots_running();
std::string snapshot_path();  // "" when not running

}  // namespace tsvcod::obs

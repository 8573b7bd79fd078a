#include "jobs/job_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace ahg::jobs {
namespace {

Status EnsureDir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

// One line per field keeps the file greppable and the parser trivial.
constexpr char kStateHeader[] = "ahg-job-state\t1";

}  // namespace

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kCheckpointed:
      return "checkpointed";
    case JobStatus::kPublished:
      return "published";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string JobStore::JobDir(const std::string& job_id) const {
  return root_ + "/" + job_id;
}

std::string JobStore::EnsembleDir(const std::string& job_id) const {
  return JobDir(job_id) + "/ensemble";
}

std::string JobStore::StatePath(const std::string& job_id) const {
  return JobDir(job_id) + "/state.tsv";
}

Status JobStore::Init() const { return EnsureDir(root_); }

Status JobStore::CreateJob(const SearchJobSpec& spec) const {
  if (spec.job_id.empty()) {
    return Status::InvalidArgument("job id must be non-empty");
  }
  if (spec.job_id.find('/') != std::string::npos ||
      spec.job_id.find("..") != std::string::npos) {
    return Status::InvalidArgument("job id must not contain '/' or '..'");
  }
  Status s = Init();
  if (!s.ok()) return s;
  const std::string dir = JobDir(spec.job_id);
  if (FileExists(dir + "/spec.bin")) {
    return Status::InvalidArgument("job " + spec.job_id + " already exists");
  }
  s = EnsureDir(dir);
  if (!s.ok()) return s;
  s = SaveSpec(dir + "/spec.bin", spec);
  if (!s.ok()) return s;
  return SaveState(spec.job_id, JobState{});
}

StatusOr<SearchJobSpec> JobStore::LoadJobSpec(const std::string& job_id) const {
  return LoadSpec(JobDir(job_id) + "/spec.bin");
}

StatusOr<JobState> JobStore::LoadState(const std::string& job_id) const {
  std::ifstream in(StatePath(job_id));
  if (!in.is_open()) {
    return Status::NotFound("no state for job " + job_id);
  }
  std::string line;
  if (!std::getline(in, line) || line != kStateHeader) {
    return Status::InvalidArgument("bad state header for job " + job_id);
  }
  JobState state;
  while (std::getline(in, line)) {
    const auto parts = StrSplit(line, '\t');
    if (parts.size() < 2) continue;
    bool parsed = true;
    if (parts[0] == "status") {
      bool known = false;
      for (int code = 0; code <= static_cast<int>(JobStatus::kCancelled);
           ++code) {
        if (parts[1] == JobStatusName(static_cast<JobStatus>(code))) {
          state.status = static_cast<JobStatus>(code);
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::InvalidArgument("unknown job status " + parts[1]);
      }
    } else if (parts[0] == "attempts") {
      parsed = ParseInt(parts[1], &state.attempts);
    } else if (parts[0] == "checkpoints_written") {
      parsed = ParseInt(parts[1], &state.checkpoints_written);
    } else if (parts[0] == "published_version") {
      parsed = ParseInt(parts[1], &state.published_version);
    } else if (parts[0] == "message") {
      state.message = parts[1];
    }
    if (!parsed) {
      return Status::InvalidArgument("malformed state row for job " + job_id +
                                     ": " + line);
    }
  }
  return state;
}

Status JobStore::SaveState(const std::string& job_id,
                           const JobState& state) const {
  const std::string path = StatePath(job_id);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError("cannot write state for job " + job_id);
    }
    std::string message = state.message;
    std::replace(message.begin(), message.end(), '\t', ' ');
    std::replace(message.begin(), message.end(), '\n', ' ');
    out << kStateHeader << "\n"
        << "status\t" << JobStatusName(state.status) << "\n"
        << "attempts\t" << state.attempts << "\n"
        << "checkpoints_written\t" << state.checkpoints_written << "\n"
        << "published_version\t" << state.published_version << "\n"
        << "message\t" << message << "\n";
    if (!out.good()) return Status::IOError("short state write for " + job_id);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename state for job " + job_id);
  }
  return Status::OK();
}

Status JobStore::SaveJobCheckpoint(
    const std::string& job_id, const SearchJobCheckpoint& checkpoint) const {
  return SaveCheckpoint(JobDir(job_id) + "/checkpoint.bin", checkpoint);
}

StatusOr<SearchJobCheckpoint> JobStore::LoadJobCheckpoint(
    const std::string& job_id) const {
  return LoadCheckpoint(JobDir(job_id) + "/checkpoint.bin");
}

bool JobStore::HasCheckpoint(const std::string& job_id) const {
  return FileExists(JobDir(job_id) + "/checkpoint.bin");
}

Status JobStore::CreateTaskJob(const TaskJobSpec& spec) const {
  if (spec.job_id.empty()) {
    return Status::InvalidArgument("job id must be non-empty");
  }
  if (spec.job_id.find('/') != std::string::npos ||
      spec.job_id.find("..") != std::string::npos) {
    return Status::InvalidArgument("job id must not contain '/' or '..'");
  }
  Status s = Init();
  if (!s.ok()) return s;
  const std::string dir = JobDir(spec.job_id);
  if (FileExists(dir + "/task_spec.bin") || FileExists(dir + "/spec.bin")) {
    return Status::InvalidArgument("job " + spec.job_id + " already exists");
  }
  s = EnsureDir(dir);
  if (!s.ok()) return s;
  s = SaveTaskSpec(dir + "/task_spec.bin", spec);
  if (!s.ok()) return s;
  return SaveState(spec.job_id, JobState{});
}

StatusOr<TaskJobSpec> JobStore::LoadTaskJobSpec(
    const std::string& job_id) const {
  return LoadTaskSpec(JobDir(job_id) + "/task_spec.bin");
}

Status JobStore::SaveTaskJobCheckpoint(
    const std::string& job_id, const TaskJobCheckpoint& checkpoint) const {
  return SaveTaskCheckpoint(JobDir(job_id) + "/task_checkpoint.bin",
                            checkpoint);
}

StatusOr<TaskJobCheckpoint> JobStore::LoadTaskJobCheckpoint(
    const std::string& job_id) const {
  return LoadTaskCheckpoint(JobDir(job_id) + "/task_checkpoint.bin");
}

bool JobStore::HasTaskCheckpoint(const std::string& job_id) const {
  return FileExists(JobDir(job_id) + "/task_checkpoint.bin");
}

std::string JobStore::WinnerPath(const std::string& job_id) const {
  return JobDir(job_id) + "/winner.ahgm";
}

std::vector<std::string> JobStore::ListJobs() const {
  std::vector<std::string> jobs;
  DIR* dir = opendir(root_.c_str());
  if (dir == nullptr) return jobs;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (FileExists(root_ + "/" + name + "/spec.bin") ||
        FileExists(root_ + "/" + name + "/task_spec.bin")) {
      jobs.push_back(name);
    }
  }
  closedir(dir);
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

StatusOr<std::vector<std::string>> JobStore::RecoverInterrupted() const {
  std::vector<std::string> recovered;
  for (const std::string& job_id : ListJobs()) {
    auto state = LoadState(job_id);
    if (!state.ok()) return state.status();
    if (state.value().status != JobStatus::kRunning) continue;
    JobState next = state.value();
    next.status = JobStatus::kCheckpointed;
    next.message = "recovered: worker died mid-run";
    Status s = SaveState(job_id, next);
    if (!s.ok()) return s;
    recovered.push_back(job_id);
  }
  return recovered;
}

}  // namespace ahg::jobs

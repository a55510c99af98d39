#include "nfp/campaign.h"

#include <algorithm>

#include "nfp/service.h"

namespace nfp::model {

Campaign::Campaign(board::BoardConfig cfg, unsigned threads)
    : cfg_(cfg), threads_(threads) {}

KernelRunRecord Campaign::run_one(const KernelJob& job) const {
  return run({job}).front();
}

std::vector<KernelRunRecord> Campaign::run(
    const std::vector<KernelJob>& jobs) const {
  if (jobs.empty()) return {};
  ServiceConfig cfg;
  cfg.board = cfg_;
  // A worker builds its 16 MiB board only on its first job, so surplus
  // workers cost no board, but they are still idle threads: never start
  // more than there are jobs.
  cfg.workers = static_cast<unsigned>(std::min<std::size_t>(
      threads_ == 0 ? CampaignService::default_workers() : threads_,
      jobs.size()));
  cfg.calibrate = false;
  CampaignService service(cfg);
  for (KernelJob job : jobs) {
    job.slice_insns = 0;
    service.submit(std::move(job));
  }
  service.wait_all();
  std::vector<KernelRunRecord> records;
  records.reserve(jobs.size());
  for (ServiceResult& r : service.results()) {
    records.push_back(std::move(r.record));
  }
  return records;
}

}  // namespace nfp::model
